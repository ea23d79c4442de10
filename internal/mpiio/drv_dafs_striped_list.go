package mpiio

import (
	"dafsio/internal/aggregate"
	"dafsio/internal/dafs"
	"dafsio/internal/layout"
	"dafsio/internal/sim"
	"dafsio/internal/trace"
	"dafsio/internal/via"
)

// Striped batch (segment-list) I/O: noncontiguous access over a striped
// pool used to fall back to one DAFS operation per fragment, because a
// batch request needs its fragments packed contiguously in one registered
// window on ONE server. The internal/aggregate planner provides exactly
// that — a per-server gather plan (staging buffer, object segment list,
// buffer↔staging copy map) — so the handle now issues one batch request
// per server per replica: writes pack the user buffer into per-server
// staging and fan each staging out write-all; reads issue the batch
// read-any and scatter the staging back on completion. Replication
// failover works at batch grain: when every replica of a plan fails, the
// whole plan is reissued after recovery, and servers that missed a write
// are excluded from read-any exactly as on the per-fragment path.

// stageBuf is a pooled staging buffer for batched gather/scatter, kept
// registered for its lifetime: steady-state collective I/O reuses the same
// windows and pays the pinning cost once, the same amortization the
// registration cache gives long-lived user buffers.
type stageBuf struct {
	buf []byte
	reg *via.Region
}

// getStage returns a registered staging buffer of at least n bytes: the
// smallest pooled buffer that fits, or a fresh power-of-two allocation
// registered on the spot.
func (d *StripedDAFSDriver) getStage(p *sim.Proc, n int64) *stageBuf {
	best := -1
	for i, sb := range d.stagePool {
		if int64(len(sb.buf)) >= n && (best < 0 || len(sb.buf) < len(d.stagePool[best].buf)) {
			best = i
		}
	}
	if best >= 0 {
		sb := d.stagePool[best]
		d.stagePool = append(d.stagePool[:best], d.stagePool[best+1:]...)
		d.m.stagePool.Set(int64(len(d.stagePool)))
		return sb
	}
	size := int64(4 << 10)
	for size < n {
		size <<= 1
	}
	buf := make([]byte, size)
	return &stageBuf{buf: buf, reg: d.nic.Register(p, buf)}
}

// putStage returns a staging buffer to the pool, registration intact —
// then trims the pool back to the StagePoolMax high-water mark by
// deregistering and dropping the smallest buffer, so a collective burst
// does not leave its whole fan-out pinned forever.
func (d *StripedDAFSDriver) putStage(p *sim.Proc, sb *stageBuf) {
	d.stagePool = append(d.stagePool, sb)
	if len(d.stagePool) > d.stageHi {
		d.stageHi = len(d.stagePool)
		d.m.stageHi.Set(int64(d.stageHi))
	}
	for len(d.stagePool) > d.StagePoolMax {
		smallest := 0
		for i, s := range d.stagePool {
			if len(s.buf) < len(d.stagePool[smallest].buf) {
				smallest = i
			}
		}
		victim := d.stagePool[smallest]
		d.stagePool = append(d.stagePool[:smallest], d.stagePool[smallest+1:]...)
		d.nic.Deregister(p, victim.reg)
	}
	d.m.stagePool.Set(int64(len(d.stagePool)))
}

// putStageAll returns a batch's staging buffers to the pool. Every exit
// path of a striped list operation — issue-time failure or Wait — must
// come through here (or putStage): a skipped return leaks a pinned,
// registered window, which is exactly what mpiolint's pairleak pass
// checks on the acquire side.
func (d *StripedDAFSDriver) putStageAll(p *sim.Proc, sbs []*stageBuf) {
	for _, sb := range sbs {
		d.putStage(p, sb)
	}
}

// StartReadList implements ListHandle over the stripe.
func (h *stripedHandle) StartReadList(p *sim.Proc, segs []Segment, buf []byte) (AsyncOp, error) {
	return h.startStripedList(p, segs, buf, false)
}

// StartWriteList implements ListHandle over the stripe.
func (h *stripedHandle) StartWriteList(p *sim.Proc, segs []Segment, buf []byte) (AsyncOp, error) {
	op, err := h.startStripedList(p, segs, buf, true)
	if err != nil || h.shadow == nil {
		return op, err
	}
	// Reshape in flight: batched writes mirror onto the new layout exactly
	// like contiguous ones.
	sop, err := h.shadow.startStripedList(p, segs, buf, true)
	if err != nil {
		op.Wait(p)
		return nil, err
	}
	return mirroredOp{op, sop}, nil
}

func (h *stripedHandle) startStripedList(p *sim.Proc, segs []Segment, buf []byte, write bool) (AsyncOp, error) {
	if err := checkIO(h.closed, h.mode, 0, write); err != nil {
		return nil, err
	}
	if len(buf) == 0 {
		return doneOp{}, nil
	}
	d := h.drv
	st := d.striping

	// Width 1 (identity layout, R == 1) on a healthy session: the whole
	// list goes to the one server as batch requests straight from the
	// user buffer, registered once through the cache — no staging.
	if st.Width == 1 && !d.down[0] && h.fhs[0][0] != 0 {
		return startDafsList(p, d.regCache, d.clients[0], h.fhs[0][0], segs, buf, write)
	}

	asegs := make([]aggregate.Segment, len(segs))
	for i, s := range segs {
		asegs[i] = aggregate.Segment{Off: s.Off, Len: s.Len}
	}
	plans := aggregate.Gather(st, asegs)

	// Stage per server, through the driver's registered staging pool.
	// Writes pack the user buffer through the copy maps now (one assembly
	// memcpy); reads leave the staging to be filled by the servers and
	// scattered back in Wait.
	node := d.Node()
	tr := d.Tracer()
	sbs := make([]*stageBuf, len(plans))
	stages := make([][]byte, len(plans))
	for i, pl := range plans {
		sbs[i] = d.getStage(p, pl.Total)
		stages[i] = sbs[i].buf[:pl.Total]
	}
	if write {
		var packed int64
		endPack := func() {}
		if tr.Enabled() {
			id := tr.Begin(node.Name, trace.LayerAggregate, "pack", trace.OpID(p.TraceCtx()))
			endPack = func() { tr.End(id) }
		}
		for i, pl := range plans {
			for _, cp := range pl.Copies {
				copy(stages[i][cp.StageOff:cp.StageOff+cp.Len], buf[cp.BufOff:cp.BufOff+cp.Len])
			}
			packed += pl.Total
		}
		node.CopyMem(p, int(packed))
		endPack()
	}

	if write {
		ops := make([][]stripedPlanOp, len(plans))
		for i, pl := range plans {
			ops[i] = make([]stripedPlanOp, st.R())
			for r := 0; r < st.R(); r++ {
				t := st.ReplicaServer(pl.Server, r)
				ops[i][r].t = t
				if !h.usable(t, r, false) {
					continue // deferred: Wait's retry path covers the plan
				}
				c := d.clients[t]
				mo, err := issuePlanBatch(p, c, h.fhs[t][r], pl.Segs, sbs[i].reg, true)
				if err != nil {
					if isSessionErr(err) {
						d.noteFailure(p, t, c, err)
						mo.Wait(p) // drain the partial chunk set
						continue
					}
					for _, row := range ops[:i+1] {
						for _, po := range row {
							if po.op != nil {
								po.op.Wait(p)
							}
						}
					}
					mo.Wait(p)
					d.putStageAll(p, sbs)
					return nil, err
				}
				ops[i][r] = stripedPlanOp{op: mo, c: c, t: t}
			}
		}
		return &stripedListWriteOp{h: h, plans: plans, ops: ops, sbs: sbs}, nil
	}

	ops := make([]stripedPlanOp, len(plans))
	for i, pl := range plans {
		for {
			t, r, ok := h.pickRead(layout.Fragment{Server: pl.Server})
			if !ok {
				break // deferred: Wait's retry path handles it
			}
			c := d.clients[t]
			mo, err := issuePlanBatch(p, c, h.fhs[t][r], pl.Segs, sbs[i].reg, false)
			if err != nil {
				if isSessionErr(err) {
					d.noteFailure(p, t, c, err)
					mo.Wait(p)
					continue // next candidate replica
				}
				for _, po := range ops[:i] {
					if po.op != nil {
						po.op.Wait(p)
					}
				}
				mo.Wait(p)
				d.putStageAll(p, sbs)
				return nil, err
			}
			ops[i] = stripedPlanOp{op: mo, c: c, t: t}
			break
		}
	}
	return &stripedListReadOp{h: h, plans: plans, ops: ops, stages: stages, sbs: sbs, buf: buf}, nil
}

// issuePlanBatch chunks one server plan's segment list by the session's
// batch capacity and starts every chunk. On error the already-started
// chunks are returned for the caller to drain.
func issuePlanBatch(p *sim.Proc, c *dafs.Client, fh dafs.FH, segs []aggregate.Seg, reg *via.Region, write bool) (multiOp, error) {
	maxSegs := c.MaxBatch()
	var ops multiOp
	specs := make([]dafs.SegSpec, 0, min(len(segs), maxSegs))
	pos := 0
	chunkStart := 0
	flush := func() error {
		if len(specs) == 0 {
			return nil
		}
		var io *dafs.IO
		var err error
		if write {
			io, err = c.StartWriteBatch(p, fh, specs, reg, chunkStart)
		} else {
			io, err = c.StartReadBatch(p, fh, specs, reg, chunkStart)
		}
		if err != nil {
			return mapDafsErr(err)
		}
		ops = append(ops, &dafsOp{io: io})
		specs = specs[:0]
		chunkStart = pos
		return nil
	}
	for _, s := range segs {
		specs = append(specs, dafs.SegSpec{Off: s.Off, Len: int(s.Len)})
		pos += int(s.Len)
		if len(specs) == maxSegs {
			if err := flush(); err != nil {
				return ops, err
			}
		}
	}
	if err := flush(); err != nil {
		return ops, err
	}
	return ops, nil
}

// startDafsList issues a whole segment list on one session as batch
// requests: buf is registered once through rc and released after the last
// chunk completes.
func startDafsList(p *sim.Proc, rc *regCache, c *dafs.Client, fh dafs.FH, segs []Segment, buf []byte, write bool) (AsyncOp, error) {
	osegs := make([]aggregate.Seg, len(segs))
	for i, s := range segs {
		osegs[i] = aggregate.Seg(s)
	}
	reg := rc.region(p, buf)
	ops, err := issuePlanBatch(p, c, fh, osegs, reg, write)
	if err != nil {
		ops.Wait(p) // drain the partial chunk set
		rc.release(p, reg)
		return nil, err
	}
	last := len(ops) - 1
	ops[last] = &dafsOp{io: ops[last].(*dafsOp).io, rc: rc, reg: reg}
	return ops, nil
}

// stripedPlanOp is one replica's in-flight batch chunk set for one server
// plan.
type stripedPlanOp struct {
	op multiOp
	c  *dafs.Client // session it was issued on (stale-guard for noteFailure)
	t  int          // server index
}

// retryPlanWrite re-drives one whole server plan through the failover path
// until some replica acks the full batch, mirroring retryWrite at batch
// grain. It returns the servers that missed the plan (to be excluded from
// read-any), or the terminal error when every replica is gone.
func (h *stripedHandle) retryPlanWrite(p *sim.Proc, pl aggregate.ServerPlan, reg *via.Region) ([]int, error) {
	d := h.drv
	st := d.striping
	for {
		if !h.waitRecovery(p, pl.Server, false) {
			return nil, d.allDown(pl.Server)
		}
		acked := false
		missed := make([]int, 0, st.R())
		for r := 0; r < st.R(); r++ {
			t := st.ReplicaServer(pl.Server, r)
			if !h.usable(t, r, false) {
				missed = append(missed, t)
				continue
			}
			c := d.clients[t]
			mo, err := issuePlanBatch(p, c, h.fhs[t][r], pl.Segs, reg, true)
			if err == nil {
				_, err = mo.Wait(p)
			} else {
				mo.Wait(p)
			}
			switch {
			case err == nil:
				acked = true
			case isSessionErr(err):
				d.noteFailure(p, t, c, err)
				missed = append(missed, t)
			default:
				return nil, mapDafsErr(err)
			}
		}
		if acked {
			return missed, nil
		}
	}
}

// retryPlanRead re-drives one whole server plan through read-any failover
// until some replica serves the full batch.
func (h *stripedHandle) retryPlanRead(p *sim.Proc, pl aggregate.ServerPlan, reg *via.Region) (int, error) {
	d := h.drv
	for {
		if !h.waitRecovery(p, pl.Server, true) {
			return 0, d.allDown(pl.Server)
		}
		t, r, ok := h.pickRead(layout.Fragment{Server: pl.Server})
		if !ok {
			continue
		}
		c := d.clients[t]
		mo, err := issuePlanBatch(p, c, h.fhs[t][r], pl.Segs, reg, false)
		if err == nil {
			var n int
			n, err = mo.Wait(p)
			if err == nil {
				return n, nil
			}
		} else {
			mo.Wait(p)
		}
		if isSessionErr(err) {
			d.noteFailure(p, t, c, err)
			continue
		}
		return 0, mapDafsErr(err)
	}
}

// stripedListWriteOp aggregates a batched write's per-plan, per-replica
// completions: a plan counts once at least one replica acked its whole
// batch, replicas that missed it are excluded from read-any, and plans
// whose every replica failed go through the synchronous batch-grain
// failover path.
type stripedListWriteOp struct {
	h     *stripedHandle
	plans []aggregate.ServerPlan
	ops   [][]stripedPlanOp
	sbs   []*stageBuf
}

// Wait implements AsyncOp.
func (o *stripedListWriteOp) Wait(p *sim.Proc) (int, error) {
	h := o.h
	d := h.drv
	total := 0
	var firstErr error
	for i, pl := range o.plans {
		acked := false
		missed := make([]int, 0, len(o.ops[i]))
		for r := range o.ops[i] {
			po := o.ops[i][r]
			if po.op == nil {
				missed = append(missed, po.t)
				continue
			}
			_, err := po.op.Wait(p)
			switch {
			case err == nil:
				acked = true
			case isSessionErr(err):
				d.noteFailure(p, po.t, po.c, err)
				missed = append(missed, po.t)
			default:
				if firstErr == nil {
					firstErr = err
				}
			}
		}
		if firstErr != nil {
			continue // hard failure: keep draining the remaining plans
		}
		if !acked {
			m, err := h.retryPlanWrite(p, pl, o.sbs[i].reg)
			if err != nil {
				firstErr = err
				continue
			}
			missed = m
		}
		total += int(pl.Total)
		for _, t := range missed {
			d.excluded[t] = true
		}
	}
	d.putStageAll(p, o.sbs)
	if firstErr != nil {
		return 0, firstErr
	}
	return total, nil
}

// stripedListReadOp aggregates a batched read's per-plan completions and
// scatters each staging buffer back through the plan's copy map. The
// count is the byte sum the servers delivered (batch reads zero-fill EOF
// holes inside the staging, same as the single-server batch path).
type stripedListReadOp struct {
	h      *stripedHandle
	plans  []aggregate.ServerPlan
	ops    []stripedPlanOp
	stages [][]byte
	sbs    []*stageBuf
	buf    []byte
}

// Wait implements AsyncOp.
func (o *stripedListReadOp) Wait(p *sim.Proc) (int, error) {
	h := o.h
	d := h.drv
	total := 0
	var firstErr error
	scattered := 0
	for i, pl := range o.plans {
		po := o.ops[i]
		got := 0
		retry := po.op == nil
		if po.op != nil {
			n, err := po.op.Wait(p)
			switch {
			case err == nil:
				got = n
			case isSessionErr(err):
				d.noteFailure(p, po.t, po.c, err)
				retry = true
			default:
				if firstErr == nil {
					firstErr = err
				}
			}
		}
		if retry && firstErr == nil {
			n, err := h.retryPlanRead(p, pl, o.sbs[i].reg)
			if err != nil {
				firstErr = err
				continue
			}
			got = n
		}
		if firstErr != nil {
			continue
		}
		for _, cp := range pl.Copies {
			copy(o.buf[cp.BufOff:cp.BufOff+cp.Len], o.stages[i][cp.StageOff:cp.StageOff+cp.Len])
			scattered += int(cp.Len)
		}
		total += got
	}
	if scattered > 0 {
		node := d.Node()
		tr := d.Tracer()
		endScatter := func() {}
		if tr.Enabled() {
			id := tr.Begin(node.Name, trace.LayerAggregate, "scatter", trace.OpID(p.TraceCtx()))
			endScatter = func() { tr.End(id) }
		}
		node.CopyMem(p, scattered)
		endScatter()
	}
	d.putStageAll(p, o.sbs)
	if firstErr != nil {
		return 0, firstErr
	}
	return total, nil
}
