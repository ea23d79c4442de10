package mpiio

import (
	"errors"
	"fmt"

	"dafsio/internal/dafs"
	"dafsio/internal/fabric"
	"dafsio/internal/layout"
	"dafsio/internal/metrics"
	"dafsio/internal/sim"
	"dafsio/internal/trace"
	"dafsio/internal/via"
)

// StripedDAFSDriver binds MPI-IO to a pool of DAFS sessions — one per
// server — with a layout.Striping policy deciding which server holds which
// bytes. A contiguous request is mapped to per-server stripe fragments,
// every fragment is issued as a nonblocking DAFS operation (inline or
// direct per fragment), and the completions are aggregated: writes sum
// their counts, reads report the contiguous prefix so EOF mid-stripe keeps
// POSIX short-read semantics. Each server stores one stripe object under
// the file's name.
//
// With Replicas > 1 the driver adds ROMIO/ADIO-style multi-backend
// dispatch policy on top of the layout's rotated replica placement:
// writes go to every replica of a fragment (write-all), reads are served
// by the first usable replica (read-any), and a session failure on one
// replica fails over to the next while a background process re-establishes
// the dead session under the driver's RetryPolicy. A server that misses a
// write is excluded from read-any from then on — its object is stale —
// and when every replica of a fragment is gone the operation fails
// wrapping dafs.ErrAllReplicasDown.
//
// With Width == 1 the layout is the identity mapping and every request
// becomes exactly one operation on the single session: NewDAFSDriver is
// that case, and the single-server tables run through it. With
// Replicas <= 1 and no failures, every code path issues exactly the
// operations the unreplicated driver did, in the same order.
//
// The transfer discipline and the registration cache are the two policies
// the paper's implementation section is about: fragments up to
// DirectThreshold bytes go inline (data inside the message, one copy per
// end), larger ones use direct I/O (server-driven RDMA into registered
// client memory) through the embedded registration cache.
type StripedDAFSDriver struct {
	*regCache
	clients  []*dafs.Client
	striping layout.Striping

	// DirectThreshold is the largest fragment served inline. It defaults
	// to the smallest MaxInline of the pool and may be lowered for
	// ablations.
	DirectThreshold int

	// Retry governs session recovery: after a failure the driver redials
	// the dead server with capped exponential backoff in simulated time.
	// The zero value (Attempts == 0) never redials — the first failure on
	// a server is final, the pre-replication behaviour.
	Retry dafs.RetryPolicy

	// Retries counts redial attempts (stat).
	Retries int64

	// Resilver bounds background re-silver traffic (heals after a replica
	// redials, copies during a reshape). The constructor default enables
	// it; set Rate <= 0 to restore the pre-elastic behaviour where an
	// excluded replica stays excluded forever.
	Resilver ResilverPolicy

	// StagePoolMax bounds the registered staging-buffer pool: putStage
	// trims the pool back to this high-water mark by deregistering and
	// dropping the smallest buffer. A collective burst can still allocate
	// past the mark (one buffer per server plan in flight); the bound
	// caps what stays pinned afterwards. Zero or negative disables
	// pooling entirely (every putStage deregisters).
	StagePoolMax int

	down     []bool                  // per server: session currently unusable
	excluded []bool                  // per server: missed a write, stale for reads
	gaveUp   []bool                  // per server: recovery exhausted, permanently dead
	sessErr  []error                 // per server: the session failure that last marked it down
	episode  []*sim.Future[struct{}] // per server: in-progress recovery, nil when none
	epoch    []int                   // per server: recovery episode counter
	healing  []*sim.Future[struct{}] // per server: in-progress re-silver, nil when none

	handles     []*stripedHandle // open handles (heal / reshape coverage)
	next        *Reshape         // in-progress reshape, nil when none
	layoutEpoch uint32           // membership epoch of the current layout

	stagePool []*stageBuf // registered staging buffers for batched gather I/O
	stageHi   int         // high-water mark of the staging pool

	m stripedMetrics
}

// stripedMetrics bundles the driver's instruments under the client node's
// name. Shared registration: a node can host more than one driver over a
// run (re-opened pools in tests), and they aggregate. Zero values
// (metrics off) are no-ops.
type stripedMetrics struct {
	retries   metrics.Counter   // redial attempts
	failovers metrics.Counter   // sessions newly marked down
	down      metrics.Gauge     // servers currently down
	excluded  metrics.Gauge     // servers excluded from read-any
	stagePool metrics.Gauge     // staging buffers currently pooled
	stageHi   metrics.Gauge     // staging-pool high water
	resilver  metrics.Gauge     // re-silver processes currently running
	resilverB metrics.Counter   // bytes copied by re-silvering
	readmits  metrics.Counter   // servers re-admitted to read-any after a heal
	epochG    metrics.Gauge     // membership epoch of the active layout
	dispatch  []metrics.Counter // fragments issued, per server index
	flight    *metrics.Flight
}

func newStripedMetrics(reg *metrics.Registry, node string, width int) stripedMetrics {
	pre := "mpiio.striped." + node + "."
	m := stripedMetrics{
		retries:   reg.SharedCounter(pre + "retries"),
		failovers: reg.SharedCounter(pre + "failovers"),
		down:      reg.SharedGauge(pre + "down"),
		excluded:  reg.SharedGauge(pre + "excluded"),
		stagePool: reg.SharedGauge(pre + "stage_pool"),
		stageHi:   reg.SharedGauge(pre + "stage_hiwater"),
		resilver:  reg.SharedGauge(pre + "resilver_active"),
		resilverB: reg.SharedCounter(pre + "resilver_bytes"),
		readmits:  reg.SharedCounter(pre + "readmits"),
		epochG:    reg.SharedGauge(pre + "epoch"),
		flight:    reg.Flight("mpiio.striped."+node, 0),
	}
	m.dispatch = make([]metrics.Counter, width)
	for t := range m.dispatch {
		m.dispatch[t] = reg.SharedCounter(fmt.Sprintf("%sdispatch.%d", pre, t))
	}
	return m
}

// NewStripedDAFSDriver wraps a session pool, one session per server in
// layout order. The pool must match the policy's width and share one NIC.
func NewStripedDAFSDriver(clients []*dafs.Client, st layout.Striping) *StripedDAFSDriver {
	if err := st.Validate(); err != nil {
		panic(err)
	}
	if len(clients) != st.Width {
		panic(fmt.Sprintf("mpiio: %d sessions for stripe width %d", len(clients), st.Width))
	}
	d := &StripedDAFSDriver{
		regCache:        newRegCache(clients[0].NIC()),
		clients:         clients,
		striping:        st,
		DirectThreshold: clients[0].MaxInline(),
		// Two full collective fan-outs' worth of staging windows stay
		// pinned between operations; anything beyond that is a burst and
		// is returned to the host at putStage time.
		StagePoolMax: 2 * st.Width,
		Resilver:     DefaultResilverPolicy(),
		down:         make([]bool, st.Width),
		excluded:     make([]bool, st.Width),
		gaveUp:       make([]bool, st.Width),
		sessErr:      make([]error, st.Width),
		episode:      make([]*sim.Future[struct{}], st.Width),
		epoch:        make([]int, st.Width),
		healing:      make([]*sim.Future[struct{}], st.Width),
		layoutEpoch:  1,
	}
	for _, c := range clients {
		if c.NIC() != clients[0].NIC() {
			panic("mpiio: striped session pool spans NICs")
		}
		// Inline fragments must fit every session's negotiated limit.
		if c.MaxInline() < d.DirectThreshold {
			d.DirectThreshold = c.MaxInline()
		}
	}
	d.m = newStripedMetrics(clients[0].NIC().Provider().Metrics, clients[0].NIC().Node.Name, st.Width)
	d.m.epochG.Set(int64(d.layoutEpoch))
	return d
}

// LayoutEpoch returns the membership epoch of the driver's active layout.
func (d *StripedDAFSDriver) LayoutEpoch() uint32 { return d.layoutEpoch }

// Clients returns the session pool in server order.
func (d *StripedDAFSDriver) Clients() []*dafs.Client { return d.clients }

// Striping returns the placement policy.
func (d *StripedDAFSDriver) Striping() layout.Striping { return d.striping }

// Node implements Driver.
func (d *StripedDAFSDriver) Node() *fabric.Node { return d.clients[0].Node() }

// Tracer returns the tracer the driver's sessions record to (nil when
// tracing is off). The MPI-IO layer uses it to open per-operation spans.
func (d *StripedDAFSDriver) Tracer() *trace.Tracer { return d.clients[0].Tracer() }

// Name implements Driver.
func (d *StripedDAFSDriver) Name() string {
	if d.striping.Width == 1 {
		return "dafs"
	}
	if r := d.striping.R(); r > 1 {
		return fmt.Sprintf("dafs-striped/%dx%d", d.striping.Width, r)
	}
	return fmt.Sprintf("dafs-striped/%d", d.striping.Width)
}

// isSessionErr reports whether err is (or wraps) a DAFS session failure —
// the class failover handles; everything else is a hard protocol or
// storage error surfaced to the caller.
func isSessionErr(err error) bool {
	return errors.Is(err, dafs.ErrSession)
}

// allDown builds the operation-level error for primary server srv when no
// replica is usable, wrapping dafs.ErrAllReplicasDown and (when known) the
// session failure recorded against its replicas, so either sentinel
// matches. This is a terminal condition, so the driver's flight ring is
// dumped for the postmortem.
func (d *StripedDAFSDriver) allDown(srv int) error {
	d.m.flight.Dump("mpiio: " + dafs.ErrAllReplicasDown.Error())
	st := d.striping
	for r := 0; r < st.R(); r++ {
		if last := d.sessErr[st.ReplicaServer(srv, r)]; last != nil {
			return fmt.Errorf("mpiio: %w: %w", dafs.ErrAllReplicasDown, last)
		}
	}
	return fmt.Errorf("mpiio: %w", dafs.ErrAllReplicasDown)
}

// exclude marks server t stale for read-any: it missed an acked write, so
// only replicas that saw every write may serve reads.
func (d *StripedDAFSDriver) exclude(t int) {
	if d.excluded[t] {
		return
	}
	d.excluded[t] = true
	d.m.excluded.Add(1)
	d.m.flight.Note(d.kernel().Now(), "exclude", "", int64(t), 0)
}

// kernel returns the simulation kernel the pool runs on.
func (d *StripedDAFSDriver) kernel() *sim.Kernel { return d.clients[0].NIC().Provider().K }

// noteFailure records a session failure err on server s. The first failure
// of a session marks the server down, keeps err for allDown to wrap and,
// when a retry policy is set, spawns a recovery process that redials the
// server with capped exponential backoff; concurrent failures of the same
// session (every in-flight op on it fails at once) collapse into one
// episode, and failures of an already replaced session are ignored.
func (d *StripedDAFSDriver) noteFailure(p *sim.Proc, s int, failed *dafs.Client, err error) {
	if d.clients[s] != failed || d.down[s] {
		return
	}
	d.down[s] = true
	d.sessErr[s] = err
	d.m.failovers.Inc()
	d.m.down.Add(1)
	d.m.flight.Note(p.Now(), "failover", "", int64(s), 0)
	if d.gaveUp[s] {
		return
	}
	if d.Retry.Attempts <= 0 {
		d.gaveUp[s] = true
		return
	}
	k := d.kernel()
	fut := sim.NewFuture[struct{}](k)
	d.episode[s] = fut
	d.epoch[s]++
	name := fmt.Sprintf("%s.redial.s%d.e%d", failed.NIC().Node.Name, s, d.epoch[s])
	k.Spawn(name, func(rp *sim.Proc) {
		defer func() {
			d.episode[s] = nil
			fut.Set(struct{}{})
		}()
		for a := 0; a < d.Retry.Attempts; a++ {
			rp.Wait(d.Retry.Backoff(a))
			d.Retries++
			d.m.retries.Inc()
			d.m.flight.Note(rp.Now(), "retry", "", int64(s), int64(a))
			nc, err := failed.Redial(rp)
			if err == nil {
				d.clients[s] = nc
				d.down[s] = false
				d.m.down.Add(-1)
				d.m.flight.Note(rp.Now(), "recovered", "", int64(s), int64(a))
				// A replica that missed writes while down is stale: the
				// redial restores the session, not the data. Re-admission
				// to read-any waits for the background re-silver, never on
				// dial success alone.
				if d.excluded[s] && d.Resilver.Rate > 0 {
					d.startHeal(rp, s)
				}
				return
			}
		}
		d.gaveUp[s] = true
		d.m.flight.Note(rp.Now(), "gave_up", "", int64(s), 0)
	})
}

// usable reports whether server t's rank-r object can serve an operation
// right now. Reads additionally refuse servers that missed a write —
// their object is stale and write-all/read-any only guarantees freshness
// on replicas that saw every acked write.
func (h *stripedHandle) usable(t, r int, forRead bool) bool {
	d := h.drv
	if d.down[t] || h.fhs[t][r] == 0 {
		return false
	}
	if forRead && d.excluded[t] {
		return false
	}
	return true
}

// pickRead chooses the replica to serve a read of a fragment with primary
// server f.Server: the first usable rank in rank order (read-any). With
// Replicas == 1 on a healthy pool this is always (f.Server, 0) — the
// unreplicated dispatch.
func (h *stripedHandle) pickRead(f layout.Fragment) (t, r int, ok bool) {
	st := h.drv.striping
	for r := 0; r < st.R(); r++ {
		t := st.ReplicaServer(f.Server, r)
		if h.usable(t, r, true) {
			return t, r, true
		}
	}
	return 0, 0, false
}

// waitRecovery blocks until some replica of primary server srv is usable
// again, charging the wait to the current operation span as retry time. It
// returns false when every replica is permanently gone (recovery given up,
// object absent, or — for reads — stale), the ErrAllReplicasDown case.
func (h *stripedHandle) waitRecovery(p *sim.Proc, srv int, forRead bool) bool {
	d := h.drv
	st := d.striping
	tr := d.Tracer()
	for {
		dead := true
		for r := 0; r < st.R(); r++ {
			t := st.ReplicaServer(srv, r)
			if h.usable(t, r, forRead) {
				return true
			}
			// A server under active re-silvering is excluded only until the
			// heal completes: readers wait it out rather than declaring the
			// fragment dead.
			if !d.gaveUp[t] && h.fhs[t][r] != 0 && (!(forRead && d.excluded[t]) || d.healing[t] != nil) {
				dead = false
			}
		}
		if dead {
			return false
		}
		// Recovery or a re-silver is in flight on some replica server: wait
		// for the first to settle, then re-evaluate.
		var fut *sim.Future[struct{}]
		for r := 0; r < st.R(); r++ {
			t := st.ReplicaServer(srv, r)
			if f := d.episode[t]; f != nil {
				fut = f
				break
			}
			if f := d.healing[t]; f != nil {
				fut = f
				break
			}
		}
		if fut == nil {
			return false
		}
		t0 := p.Now()
		fut.Get(p)
		tr.Charge(trace.OpID(p.TraceCtx()), trace.CatRetry, p.Now()-t0)
	}
}

// Open implements Driver: every rank's stripe object is looked up (or
// created) on every server. The per-server, per-rank Lookups go out
// concurrently — the sessions are independent, so the latency is one
// round trip rather than Width of them — and the Creates for the objects
// that reported ErrNoEnt go out as a second concurrent wave. Servers whose
// session fails mid-open are skipped (their handles stay absent); the open
// succeeds as long as every primary keeps at least one resolvable replica.
func (d *StripedDAFSDriver) Open(p *sim.Proc, name string, mode int) (Handle, error) {
	if err := checkAccessMode(mode); err != nil {
		return nil, err
	}
	st := d.striping
	W, R := st.Width, st.R()
	lookups := make([][]*dafs.NameOp, W)
	var startErr error
	skipped := false
issue:
	for t := 0; t < W; t++ {
		lookups[t] = make([]*dafs.NameOp, R)
		if d.down[t] {
			skipped = true
			continue
		}
		c := d.clients[t]
		for r := 0; r < R; r++ {
			op, err := c.StartLookup(p, d.objName(name, r))
			if err != nil {
				if isSessionErr(err) {
					d.noteFailure(p, t, c, err)
					skipped = true
					continue issue
				}
				startErr = err
				break issue
			}
			lookups[t][r] = op
		}
	}
	fhs := make([][]dafs.FH, W)
	for t := range fhs {
		fhs[t] = make([]dafs.FH, R)
	}
	type slot struct{ t, r int }
	var missing []slot // objects that need a Create
	found := 0
	var opErr error
	for t := 0; t < W; t++ {
		for r, op := range lookups[t] {
			if op == nil {
				continue
			}
			fh, _, err := op.Wait(p)
			switch {
			case err == nil:
				fhs[t][r] = fh
				found++
			case errors.Is(err, dafs.ErrNoEnt) && mode&ModeCreate != 0:
				missing = append(missing, slot{t, r})
			case isSessionErr(err):
				d.noteFailure(p, t, d.clients[t], err)
				skipped = true
			default:
				if opErr == nil {
					opErr = err
				}
			}
		}
	}
	if startErr != nil {
		return nil, mapDafsErr(startErr)
	}
	if opErr != nil {
		return nil, mapDafsErr(opErr)
	}
	if mode&ModeExcl != 0 && found > 0 {
		return nil, ErrExist
	}
	if len(missing) > 0 {
		creates := make([]*dafs.NameOp, len(missing))
		for j, sl := range missing {
			if d.down[sl.t] {
				skipped = true
				continue
			}
			c := d.clients[sl.t]
			op, err := c.StartCreate(p, d.objName(name, sl.r))
			if err != nil {
				if isSessionErr(err) {
					d.noteFailure(p, sl.t, c, err)
					skipped = true
					continue
				}
				startErr = err
				break
			}
			creates[j] = op
		}
		for j, op := range creates {
			if op == nil {
				continue
			}
			fh, _, err := op.Wait(p)
			switch {
			case err == nil:
				fhs[missing[j].t][missing[j].r] = fh
			case isSessionErr(err):
				d.noteFailure(p, missing[j].t, d.clients[missing[j].t], err)
				skipped = true
			default:
				if opErr == nil {
					opErr = err
				}
			}
		}
		if startErr != nil {
			return nil, mapDafsErr(startErr)
		}
		if opErr != nil {
			return nil, mapDafsErr(opErr)
		}
	}
	if skipped {
		// Degraded open: every primary must keep at least one replica.
		for s := 0; s < W; s++ {
			ok := false
			for r := 0; r < R; r++ {
				if fhs[st.ReplicaServer(s, r)][r] != 0 {
					ok = true
					break
				}
			}
			if !ok {
				return nil, d.allDown(s)
			}
		}
	}
	h := &stripedHandle{drv: d, fhs: fhs, name: name, mode: mode}
	d.registerHandle(h)
	if d.next != nil {
		// A reshape is in flight: the new handle joins the dual-write
		// regime so writes it issues land on both layouts.
		if err := d.next.attach(p, h); err != nil {
			h.Close(p)
			return nil, err
		}
	}
	return h, nil
}

// Delete implements Driver: every rank's stripe object is removed on every
// live server, all removals in flight at once. Down servers are skipped —
// fail-stop leaves their orphan objects behind.
func (d *StripedDAFSDriver) Delete(p *sim.Proc, name string) error {
	st := d.striping
	W, R := st.Width, st.R()
	type wop struct {
		op *dafs.Ack
		c  *dafs.Client
		t  int
	}
	var ops []wop
	var startErr error
issue:
	for t := 0; t < W; t++ {
		if d.down[t] {
			continue
		}
		c := d.clients[t]
		for r := 0; r < R; r++ {
			op, err := c.StartRemove(p, d.objName(name, r))
			if err != nil {
				if isSessionErr(err) {
					d.noteFailure(p, t, c, err)
					continue issue
				}
				startErr = err
				break issue
			}
			ops = append(ops, wop{op, c, t})
		}
	}
	missing, waited := 0, 0
	var opErr error
	for _, w := range ops {
		err := w.op.Wait(p)
		switch {
		case err == nil:
			waited++
		case errors.Is(err, dafs.ErrNoEnt):
			waited++
			missing++
		case isSessionErr(err):
			d.noteFailure(p, w.t, w.c, err)
		case opErr == nil:
			waited++
			opErr = err
		default:
			waited++
		}
	}
	if startErr != nil {
		return mapDafsErr(startErr)
	}
	if opErr != nil {
		return mapDafsErr(opErr)
	}
	if waited > 0 && missing == waited {
		return ErrNoEnt
	}
	return nil
}

type stripedHandle struct {
	drv    *StripedDAFSDriver
	fhs    [][]dafs.FH // per server, per replica rank; 0 = absent
	name   string
	mode   int
	closed bool

	// shadow mirrors writes onto the reshape's new layout while a
	// membership change is migrating this file; nil outside a reshape.
	shadow *stripedHandle
}

// issueFrag starts one fragment's transfer on session t, inline or
// direct by the driver's threshold (the same discipline for every replica
// of the fragment — they are byte-identical transfers to different
// servers). t indexes the per-server dispatch counters.
func (h *stripedHandle) issueFrag(p *sim.Proc, c *dafs.Client, t int, fh dafs.FH, f layout.Fragment, buf []byte, reg *via.Region, write bool) (*dafs.IO, error) {
	d := h.drv
	d.m.dispatch[t].Inc()
	switch {
	case int(f.Len) <= d.DirectThreshold && write:
		return c.StartWrite(p, fh, f.Off, buf[f.BufOff:f.BufOff+f.Len])
	case int(f.Len) <= d.DirectThreshold:
		return c.StartRead(p, fh, f.Off, buf[f.BufOff:f.BufOff+f.Len])
	case write:
		return c.StartWriteDirect(p, fh, f.Off, reg, int(f.BufOff), int(f.Len))
	default:
		return c.StartReadDirect(p, fh, f.Off, reg, int(f.BufOff), int(f.Len))
	}
}

// fragOp is one replica's in-flight operation for one fragment.
type fragOp struct {
	op *dafsOp
	c  *dafs.Client // session it was issued on (stale-guard for noteFailure)
	t  int          // server index
}

// needReg reports whether any fragment takes the direct path.
func (h *stripedHandle) needReg(frags []layout.Fragment) bool {
	for _, f := range frags {
		if int(f.Len) > h.drv.DirectThreshold {
			return true
		}
	}
	return false
}

// StartRead implements Handle: each fragment is issued to its read-any
// replica. Fragments with no usable replica at issue time are deferred to
// the failover path in Wait.
func (h *stripedHandle) StartRead(p *sim.Proc, off int64, buf []byte) (AsyncOp, error) {
	if err := checkIO(h.closed, h.mode, off, false); err != nil {
		return nil, err
	}
	if len(buf) == 0 {
		return doneOp{}, nil
	}
	d := h.drv
	frags := d.striping.Map(off, int64(len(buf)))
	var reg *via.Region
	if h.needReg(frags) {
		reg = d.region(p, buf)
	}
	ops := make([]fragOp, len(frags))
	for i, f := range frags {
		for {
			t, r, ok := h.pickRead(f)
			if !ok {
				break // deferred: Wait's retry path handles it
			}
			c := d.clients[t]
			io, err := h.issueFrag(p, c, t, h.fhs[t][r], f, buf, reg, false)
			if err != nil {
				if isSessionErr(err) {
					d.noteFailure(p, t, c, err)
					continue // next candidate replica
				}
				h.drainFrags(p, ops[:i])
				if reg != nil {
					d.release(p, reg)
				}
				return nil, mapDafsErr(err)
			}
			ops[i] = fragOp{op: &dafsOp{io: io}, c: c, t: t}
			break
		}
	}
	return &stripedReadOp{h: h, frags: frags, ops: ops, buf: buf, reg: reg}, nil
}

// StartWrite implements Handle: each fragment is issued to every usable
// replica (write-all), all replicas of all fragments in flight at once.
func (h *stripedHandle) StartWrite(p *sim.Proc, off int64, buf []byte) (AsyncOp, error) {
	if err := checkIO(h.closed, h.mode, off, true); err != nil {
		return nil, err
	}
	if len(buf) == 0 {
		return doneOp{}, nil
	}
	d := h.drv
	st := d.striping
	frags := st.Map(off, int64(len(buf)))
	var reg *via.Region
	if h.needReg(frags) {
		reg = d.region(p, buf)
	}
	ops := make([][]fragOp, len(frags))
	for i, f := range frags {
		ops[i] = make([]fragOp, st.R())
		for r := 0; r < st.R(); r++ {
			t := st.ReplicaServer(f.Server, r)
			ops[i][r].t = t
			if !h.usable(t, r, false) {
				continue // deferred: Wait's retry path covers the fragment
			}
			c := d.clients[t]
			io, err := h.issueFrag(p, c, t, h.fhs[t][r], f, buf, reg, true)
			if err != nil {
				if isSessionErr(err) {
					d.noteFailure(p, t, c, err)
					continue
				}
				for _, row := range ops[:i+1] {
					h.drainFrags(p, row)
				}
				if reg != nil {
					d.release(p, reg)
				}
				return nil, mapDafsErr(err)
			}
			ops[i][r] = fragOp{op: &dafsOp{io: io}, c: c, t: t}
		}
	}
	op := AsyncOp(&stripedWriteOp{h: h, frags: frags, ops: ops, buf: buf, reg: reg})
	if h.shadow != nil {
		// Reshape in flight: mirror the write onto the new layout so the
		// migrator never races foreground writes it cannot see.
		sop, err := h.shadow.StartWrite(p, off, buf)
		if err != nil {
			op.Wait(p)
			return nil, err
		}
		op = mirroredOp{op, sop}
	}
	return op, nil
}

// drainFrags waits out already-launched fragment ops after an issue
// failure — their completions recycle session credits.
func (h *stripedHandle) drainFrags(p *sim.Proc, ops []fragOp) {
	for _, fo := range ops {
		if fo.op != nil {
			fo.op.Wait(p)
		}
	}
}

// retryWrite re-drives one fragment through the failover path until some
// replica acks it: wait for a session recovery, issue to every usable
// replica, and repeat on further failures. It returns the servers that
// missed the fragment (to be excluded from read-any), or the terminal
// error when every replica is gone.
func (h *stripedHandle) retryWrite(p *sim.Proc, f layout.Fragment, buf []byte, reg *via.Region) ([]int, error) {
	d := h.drv
	st := d.striping
	for {
		if !h.waitRecovery(p, f.Server, false) {
			return nil, d.allDown(f.Server)
		}
		acked := false
		missed := make([]int, 0, st.R())
		for r := 0; r < st.R(); r++ {
			t := st.ReplicaServer(f.Server, r)
			if !h.usable(t, r, false) {
				missed = append(missed, t)
				continue
			}
			c := d.clients[t]
			io, err := h.issueFrag(p, c, t, h.fhs[t][r], f, buf, reg, true)
			if err == nil {
				op := &dafsOp{io: io}
				_, err = op.Wait(p)
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

// retryRead re-drives one fragment through read-any failover until some
// replica serves it.
func (h *stripedHandle) retryRead(p *sim.Proc, f layout.Fragment, buf []byte, reg *via.Region) (int, error) {
	d := h.drv
	for {
		if !h.waitRecovery(p, f.Server, true) {
			return 0, d.allDown(f.Server)
		}
		t, r, ok := h.pickRead(f)
		if !ok {
			continue
		}
		c := d.clients[t]
		io, err := h.issueFrag(p, c, t, h.fhs[t][r], f, buf, reg, false)
		if err == nil {
			op := &dafsOp{io: io}
			var n int
			n, err = op.Wait(p)
			if err == nil {
				return n, nil
			}
		}
		if isSessionErr(err) {
			d.noteFailure(p, t, c, err)
			continue
		}
		return 0, mapDafsErr(err)
	}
}

// stripedWriteOp aggregates a write's per-fragment, per-replica
// completions. A fragment counts once it is acked by at least one replica;
// replicas that missed it are excluded from read-any. Fragments whose
// every issued replica fails go through the synchronous failover path.
type stripedWriteOp struct {
	h     *stripedHandle
	frags []layout.Fragment
	ops   [][]fragOp
	buf   []byte
	reg   *via.Region
}

// Wait implements AsyncOp.
func (o *stripedWriteOp) Wait(p *sim.Proc) (int, error) {
	h := o.h
	d := h.drv
	total := 0
	var firstErr error
	for i, f := range o.frags {
		acked := false
		missed := make([]int, 0, len(o.ops[i]))
		for r := range o.ops[i] {
			fo := o.ops[i][r]
			if fo.op == nil {
				missed = append(missed, fo.t)
				continue
			}
			_, err := fo.op.Wait(p)
			switch {
			case err == nil:
				acked = true
			case isSessionErr(err):
				d.noteFailure(p, fo.t, fo.c, err)
				missed = append(missed, fo.t)
			default:
				if firstErr == nil {
					firstErr = err
				}
			}
		}
		if firstErr != nil {
			continue // hard failure: keep draining the remaining fragments
		}
		if !acked {
			m, err := h.retryWrite(p, f, o.buf, o.reg)
			if err != nil {
				firstErr = err
				continue
			}
			missed = m
		}
		total += int(f.Len)
		for _, t := range missed {
			d.exclude(t)
		}
	}
	if o.reg != nil {
		d.release(p, o.reg)
	}
	if firstErr != nil {
		return 0, firstErr
	}
	return total, nil
}

// stripedReadOp aggregates per-fragment reads with contiguous-prefix
// short-read semantics (a plain sum would over-count past EOF holes);
// fragments whose replica fails — or that had no usable replica at issue
// time — go through the read-any failover path.
type stripedReadOp struct {
	h     *stripedHandle
	frags []layout.Fragment
	ops   []fragOp
	buf   []byte
	reg   *via.Region
}

// Wait implements AsyncOp.
func (o *stripedReadOp) Wait(p *sim.Proc) (int, error) {
	h := o.h
	d := h.drv
	counts := make([]int, len(o.frags))
	var firstErr error
	for i, f := range o.frags {
		fo := o.ops[i]
		retry := fo.op == nil
		if fo.op != nil {
			n, err := fo.op.Wait(p)
			switch {
			case err == nil:
				counts[i] = n
			case isSessionErr(err):
				d.noteFailure(p, fo.t, fo.c, err)
				retry = true
			default:
				if firstErr == nil {
					firstErr = err
				}
			}
		}
		if !retry || firstErr != nil {
			continue
		}
		n, err := h.retryRead(p, f, o.buf, o.reg)
		if err != nil {
			firstErr = err
			continue
		}
		counts[i] = n
	}
	if o.reg != nil {
		d.release(p, o.reg)
	}
	if firstErr != nil {
		return 0, firstErr
	}
	return layout.ContiguousCount(o.frags, counts), nil
}

// ReadContig implements Handle.
func (h *stripedHandle) ReadContig(p *sim.Proc, off int64, buf []byte) (int, error) {
	op, err := h.StartRead(p, off, buf)
	if err != nil {
		return 0, err
	}
	return op.Wait(p)
}

// WriteContig implements Handle.
func (h *stripedHandle) WriteContig(p *sim.Proc, off int64, buf []byte) (int, error) {
	op, err := h.StartWrite(p, off, buf)
	if err != nil {
		return 0, err
	}
	return op.Wait(p)
}

// Size implements Handle: the logical size is recovered from the
// per-server stripe-object sizes through the layout's inverse mapping.
// Each primary's size is read from its read-any replica; the Getattrs are
// issued concurrently across the session pool, with session failures
// retried synchronously on the next replica.
func (h *stripedHandle) Size(p *sim.Proc) (int64, error) {
	if h.closed {
		return 0, ErrClosed
	}
	d := h.drv
	st := d.striping
	W := st.Width
	type ga struct {
		op *dafs.AttrOp
		c  *dafs.Client
		t  int
	}
	ops := make([]ga, W)
	var startErr error
	for s := 0; s < W; s++ {
		t, r, ok := h.pickRead(layout.Fragment{Server: s})
		if !ok {
			continue // retried synchronously below
		}
		c := d.clients[t]
		op, err := c.StartGetattr(p, h.fhs[t][r])
		if err != nil {
			if isSessionErr(err) {
				d.noteFailure(p, t, c, err)
				continue
			}
			startErr = err
			break
		}
		ops[s] = ga{op: op, c: c, t: t}
	}
	sizes := make([]int64, W)
	var retry []int
	var opErr error
	for s := 0; s < W; s++ {
		if ops[s].op == nil {
			retry = append(retry, s)
			continue
		}
		attr, err := ops[s].op.Wait(p)
		switch {
		case err == nil:
			sizes[s] = attr.Size
		case isSessionErr(err):
			d.noteFailure(p, ops[s].t, ops[s].c, err)
			retry = append(retry, s)
		default:
			if opErr == nil {
				opErr = err
			}
		}
	}
	if startErr != nil {
		return 0, mapDafsErr(startErr)
	}
	if opErr != nil {
		return 0, mapDafsErr(opErr)
	}
	for _, s := range retry {
		z, err := h.retryGetattr(p, s)
		if err != nil {
			return 0, err
		}
		sizes[s] = z
	}
	return st.LogicalSize(sizes), nil
}

// retryGetattr re-drives one primary's size query through read-any
// failover.
func (h *stripedHandle) retryGetattr(p *sim.Proc, s int) (int64, error) {
	d := h.drv
	for {
		if !h.waitRecovery(p, s, true) {
			return 0, d.allDown(s)
		}
		t, r, ok := h.pickRead(layout.Fragment{Server: s})
		if !ok {
			continue
		}
		c := d.clients[t]
		op, err := c.StartGetattr(p, h.fhs[t][r])
		if err == nil {
			var attr dafs.Attr
			attr, err = op.Wait(p)
			if err == nil {
				return attr.Size, nil
			}
		}
		if isSessionErr(err) {
			d.noteFailure(p, t, c, err)
			continue
		}
		return 0, mapDafsErr(err)
	}
}

// Resize implements Handle: each rank object is set to its primary's share
// of the logical size (write-all), all Setattrs in flight at once.
func (h *stripedHandle) Resize(p *sim.Proc, n int64) error {
	if h.closed {
		return ErrClosed
	}
	if n < 0 {
		return ErrNegative
	}
	sizes := h.drv.striping.ObjectSizes(n)
	W := h.drv.striping.Width
	err := h.ackWave(p, func(c *dafs.Client, t, r int) (*dafs.Ack, error) {
		return c.StartSetattr(p, h.fhs[t][r], sizes[(t-r+W)%W])
	})
	if err == nil && h.shadow != nil {
		err = h.shadow.Resize(p, n)
	}
	return err
}

// Sync implements Handle: every rank object's Fsync is in flight at once.
func (h *stripedHandle) Sync(p *sim.Proc) error {
	if h.closed {
		return ErrClosed
	}
	err := h.ackWave(p, func(c *dafs.Client, t, r int) (*dafs.Ack, error) {
		return c.StartFsync(p, h.fhs[t][r])
	})
	if err == nil && h.shadow != nil {
		err = h.shadow.Sync(p)
	}
	return err
}

// ackWave runs one acknowledgement-only operation on every rank object of
// every usable server (write-all), all in flight at once. Every launched
// op is waited on even after a failure — the completions recycle session
// credits — and the first hard error wins, issue failures first. Session
// failures on one replica are tolerated while every primary keeps at
// least one acked rank; servers that missed the wave are excluded from
// read-any (their metadata is stale).
func (h *stripedHandle) ackWave(p *sim.Proc, start func(c *dafs.Client, t, r int) (*dafs.Ack, error)) error {
	d := h.drv
	st := d.striping
	W, R := st.Width, st.R()
	type wop struct {
		op *dafs.Ack
		c  *dafs.Client
	}
	ops := make([][]wop, W)
	var startErr error
issue:
	for t := 0; t < W; t++ {
		ops[t] = make([]wop, R)
		for r := 0; r < R; r++ {
			if d.down[t] || h.fhs[t][r] == 0 {
				continue
			}
			c := d.clients[t]
			op, err := start(c, t, r)
			if err != nil {
				if isSessionErr(err) {
					d.noteFailure(p, t, c, err)
					continue issue
				}
				startErr = err
				break issue
			}
			ops[t][r] = wop{op, c}
		}
	}
	acked := make([]bool, W)
	missed := make([]bool, W)
	var opErr error
	for t := 0; t < W; t++ {
		for r := range ops[t] {
			w := ops[t][r]
			if w.op == nil {
				missed[t] = true
				continue
			}
			err := w.op.Wait(p)
			switch {
			case err == nil:
				acked[(t-r+W)%W] = true
			case isSessionErr(err):
				d.noteFailure(p, t, w.c, err)
				missed[t] = true
			default:
				if opErr == nil {
					opErr = err
				}
			}
		}
	}
	if startErr != nil {
		return mapDafsErr(startErr)
	}
	if opErr != nil {
		return mapDafsErr(opErr)
	}
	for s := 0; s < W; s++ {
		if !acked[s] {
			return d.allDown(s)
		}
	}
	for t := 0; t < W; t++ {
		if missed[t] {
			d.exclude(t)
		}
	}
	return nil
}

// Close implements Handle.
func (h *stripedHandle) Close(p *sim.Proc) error {
	if h.closed {
		return nil
	}
	h.closed = true
	h.drv.dropHandle(h)
	if h.shadow != nil {
		sh := h.shadow
		h.shadow = nil
		sh.Close(p)
	}
	if h.mode&ModeDeleteOnClose != 0 {
		return h.drv.Delete(p, h.name)
	}
	return nil
}
