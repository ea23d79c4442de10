package mpiio

import (
	"bytes"
	"fmt"

	"dafsio/internal/dafs"
	"dafsio/internal/layout"
	"dafsio/internal/sim"
)

// This file is the recovery half PR 4 left open: background re-silvering.
//
// Two flows share the machinery. The *heal* flow repairs a replica that
// missed writes while its server was down: after the session redials
// cleanly, a background process copies the stale rank objects back from
// live mirror replicas, verifies them byte for byte, and only then
// re-admits the server into read fan-out — re-admission is gated on
// re-silver completion, never on dial success. The *reshape* flow moves a
// driver onto a new session pool and striping (a server joined or is
// draining): a shadow driver over the new layout receives mirrored
// foreground writes while one migrator copies and verifies the whole
// file under epoch-tagged object names, and every participant then flips
// atomically to the new pool.
//
// Both flows pace their copy traffic through a token bucket running on
// simulated time, so foreground bandwidth dips but never stops — the
// bounded-bandwidth re-silver of the elastic-membership design (DESIGN
// §14).

// ResilverPolicy bounds background copy traffic.
type ResilverPolicy struct {
	// Rate is the copy budget in bytes per second of simulated time,
	// applied to every byte the re-silverer moves or verifies. <= 0
	// disables re-silvering entirely: a replica that missed writes then
	// stays excluded forever (the pre-elastic behaviour) and reshapes
	// refuse to start.
	Rate float64
	// Burst is the token bucket depth in bytes (default Chunk).
	Burst int
	// Chunk is the copy and verify granularity in bytes (default 64 KiB).
	Chunk int
	// Passes bounds the copy+verify rounds per object (default 4): each
	// round re-verifies and re-copies ranges foreground writes dirtied
	// since the last one, so the loop converges once writes quiesce.
	Passes int
}

// DefaultResilverPolicy is the constructor default: re-silvering on, a
// quarter of a paper-era SAN link's worth of copy bandwidth, 64 KiB
// chunks.
func DefaultResilverPolicy() ResilverPolicy {
	return ResilverPolicy{Rate: 32 << 20, Chunk: 64 << 10, Passes: 4}
}

func (rp ResilverPolicy) chunk() int {
	if rp.Chunk > 0 {
		return rp.Chunk
	}
	return 64 << 10
}

func (rp ResilverPolicy) passes() int {
	if rp.Passes > 0 {
		return rp.Passes
	}
	return 4
}

// tokenBucket paces background bytes on simulated time: take blocks the
// calling process until the bucket holds n tokens, refilling at Rate.
type tokenBucket struct {
	rate   float64 // bytes per second of simulated time
	burst  float64
	tokens float64
	last   sim.Time
}

func newTokenBucket(rp ResilverPolicy, now sim.Time) *tokenBucket {
	burst := float64(rp.Burst)
	if burst <= 0 {
		burst = float64(rp.chunk())
	}
	return &tokenBucket{rate: rp.Rate, burst: burst, tokens: burst, last: now}
}

func (b *tokenBucket) take(p *sim.Proc, n int) {
	if b.rate <= 0 {
		return
	}
	now := p.Now()
	b.tokens += float64(now-b.last) * b.rate / 1e9
	b.last = now
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	if b.tokens >= float64(n) {
		b.tokens -= float64(n)
		return
	}
	wait := sim.Time((float64(n) - b.tokens) * 1e9 / b.rate)
	if wait < 1 {
		wait = 1
	}
	p.Wait(wait)
	b.tokens = 0
	b.last = p.Now()
}

// objName is the on-store name of rank r's stripe object under the
// driver's current layout epoch. Epoch 1 keeps the plain replica name, so
// static clusters stay store-compatible with everything written before
// layouts were versioned.
func (d *StripedDAFSDriver) objName(name string, r int) string {
	return layout.EpochName(layout.ReplicaName(name, r), d.layoutEpoch)
}

// registerHandle adds h to the driver's open-handle registry — the set a
// background heal or reshape must cover.
func (d *StripedDAFSDriver) registerHandle(h *stripedHandle) {
	d.handles = append(d.handles, h)
}

// dropHandle removes h from the registry (Close).
func (d *StripedDAFSDriver) dropHandle(h *stripedHandle) {
	for i, o := range d.handles {
		if o == h {
			d.handles = append(d.handles[:i], d.handles[i+1:]...)
			return
		}
	}
}

// startHeal spawns the background re-silver for server t after its
// session redialed cleanly while the server was excluded from read-any.
// The caller (the recovery episode) has already swapped in the fresh
// session; the heal copies every open handle's rank objects hosted on t
// back from live mirror replicas, verifies them, and re-admits t. Until
// it finishes, t stays excluded — re-admission is gated on re-silver
// completion, not on dial success.
func (d *StripedDAFSDriver) startHeal(p *sim.Proc, t int) {
	if d.healing[t] != nil {
		return
	}
	k := d.kernel()
	fut := sim.NewFuture[struct{}](k)
	d.healing[t] = fut
	d.m.resilver.Add(1)
	d.m.flight.Note(p.Now(), "resilver", "", int64(t), 0)
	gen := d.layoutEpoch
	ep := d.epoch[t]
	name := fmt.Sprintf("%s.resilver.s%d.e%d", d.clients[t].NIC().Node.Name, t, ep)
	k.Spawn(name, func(hp *sim.Proc) {
		ok := d.heal(hp, t, gen, ep)
		d.healing[t] = nil
		d.m.resilver.Add(-1)
		if ok && d.layoutEpoch == gen && d.epoch[t] == ep && d.excluded[t] {
			d.excluded[t] = false
			d.m.excluded.Add(-1)
			d.m.readmits.Inc()
			d.m.flight.Note(hp.Now(), "readmit", "", int64(t), 0)
		}
		fut.Set(struct{}{})
	})
}

// heal re-silvers server t's rank objects for every open handle. It
// returns false when the heal must be abandoned (the server failed again,
// the layout moved on, or a source replica is unreachable); the next
// clean redial starts a fresh heal.
func (d *StripedDAFSDriver) heal(p *sim.Proc, t int, gen uint32, ep int) bool {
	tb := newTokenBucket(d.Resilver, p.Now())
	buf := make([]byte, d.Resilver.chunk())
	// Snapshot: handles opened after the heal started saw the server
	// excluded and wrote nothing it could miss.
	hs := append([]*stripedHandle(nil), d.handles...)
	for _, h := range hs {
		if h.closed {
			continue
		}
		for r := 0; r < d.striping.R(); r++ {
			if d.striping.ReplicaServer((t-r+d.striping.Width)%d.striping.Width, r) != t {
				continue // defensive; rotation makes this exact
			}
			if h.fhs[t][r] == 0 {
				continue
			}
			if !d.healObject(p, tb, buf, h, t, r, gen, ep) {
				return false
			}
		}
	}
	return true
}

// healObject copies and verifies one stale rank object on server t from a
// live mirror replica, chunk by chunk through the token bucket.
func (d *StripedDAFSDriver) healObject(p *sim.Proc, tb *tokenBucket, buf []byte, h *stripedHandle, t, r int, gen uint32, ep int) bool {
	st := d.striping
	prim := (t - r + st.Width) % st.Width // primary whose data rank r mirrors
	chunk := len(buf)
	verify := make([]byte, chunk)
	for pass := 0; pass < d.Resilver.passes(); pass++ {
		src, sr, ok := h.pickHealSource(prim, t)
		if !ok {
			return false // no live mirror to copy from; wait for another episode
		}
		size, err := d.objSize(p, src, h.fhs[src][sr])
		if err != nil {
			return false
		}
		clean := true
		for off := int64(0); off < size || off == 0 && size == 0; off += int64(chunk) {
			if d.layoutEpoch != gen || d.epoch[t] != ep || d.down[t] {
				return false // layout moved on or the server failed again
			}
			if size == 0 {
				break
			}
			n := chunk
			if rem := size - off; rem < int64(n) {
				n = int(rem)
			}
			// Verify first: bytes already identical (an earlier pass, or
			// foreground write-all landing on both sides) cost one
			// bucketed read each side, no copy.
			tb.take(p, n)
			sn, err := d.objRead(p, src, h.fhs[src][sr], off, buf[:n])
			if err != nil {
				return false
			}
			tb.take(p, n)
			tn, err := d.objRead(p, t, h.fhs[t][r], off, verify[:n])
			if err != nil {
				return false
			}
			if tn == sn && bytes.Equal(buf[:sn], verify[:tn]) {
				continue
			}
			clean = false
			tb.take(p, sn)
			if err := d.objWrite(p, t, h.fhs[t][r], off, buf[:sn]); err != nil {
				return false
			}
			d.m.resilverB.Add(int64(sn))
		}
		if clean && pass > 0 {
			return true // one full untouched verify pass: converged
		}
		if clean {
			// First pass found nothing to fix; one more confirms.
			continue
		}
	}
	// Passes exhausted with copies still happening: foreground writes are
	// outrunning the bucket. Stay excluded; a later episode retries.
	return false
}

// pickHealSource finds a live, fresh mirror of primary prim other than
// the server being healed.
func (h *stripedHandle) pickHealSource(prim, not int) (t, r int, ok bool) {
	st := h.drv.striping
	for r := 0; r < st.R(); r++ {
		t := st.ReplicaServer(prim, r)
		if t != not && h.usable(t, r, true) {
			return t, r, true
		}
	}
	return 0, 0, false
}

// objSize, objRead, objWrite are the heal's raw per-object operations on
// one server's session, inline or direct by size like the foreground
// path. Session failures surface as errors (the heal aborts and a later
// episode retries) after marking the failure so recovery machinery runs.
func (d *StripedDAFSDriver) objSize(p *sim.Proc, t int, fh dafs.FH) (int64, error) {
	c := d.clients[t]
	op, err := c.StartGetattr(p, fh)
	if err == nil {
		var attr dafs.Attr
		if attr, err = op.Wait(p); err == nil {
			return attr.Size, nil
		}
	}
	if isSessionErr(err) {
		d.noteFailure(p, t, c, err)
	}
	return 0, err
}

func (d *StripedDAFSDriver) objRead(p *sim.Proc, t int, fh dafs.FH, off int64, buf []byte) (int, error) {
	c := d.clients[t]
	var io *dafs.IO
	var err error
	if len(buf) <= d.DirectThreshold {
		io, err = c.StartRead(p, fh, off, buf)
	} else {
		reg := d.region(p, buf)
		io, err = c.StartReadDirect(p, fh, off, reg, 0, len(buf))
		defer d.release(p, reg)
	}
	if err == nil {
		var n int
		if n, err = io.Wait(p); err == nil {
			return n, nil
		}
	}
	if isSessionErr(err) {
		d.noteFailure(p, t, c, err)
	}
	return 0, err
}

func (d *StripedDAFSDriver) objWrite(p *sim.Proc, t int, fh dafs.FH, off int64, buf []byte) error {
	c := d.clients[t]
	var io *dafs.IO
	var err error
	if len(buf) <= d.DirectThreshold {
		io, err = c.StartWrite(p, fh, off, buf)
	} else {
		reg := d.region(p, buf)
		io, err = c.StartWriteDirect(p, fh, off, reg, 0, len(buf))
		defer d.release(p, reg)
	}
	if err == nil {
		if _, err = io.Wait(p); err == nil {
			return nil
		}
	}
	if isSessionErr(err) {
		d.noteFailure(p, t, c, err)
	}
	return err
}
