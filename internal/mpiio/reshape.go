package mpiio

import (
	"bytes"
	"errors"
	"fmt"

	"dafsio/internal/dafs"
	"dafsio/internal/layout"
	"dafsio/internal/sim"
)

// ErrReshape wraps reshape-protocol failures.
var ErrReshape = errors.New("mpiio: reshape failed")

// Reshape moves a striped driver onto a new session pool and striping —
// the client side of a membership change (a server joined, or one is
// draining toward removal). The protocol has four steps:
//
//	rs, _ := d.PrepareReshape(p, newPool, newStriping, epoch)
//	err := rs.Migrate(p)   // one participant only: the migrator
//	rs.Commit(p)           // every participant, after the migrator is done
//	rs.Cleanup(p)          // migrator only, after every participant committed
//
// Prepare builds a shadow driver over the new pool, opens a shadow handle
// for every open handle under epoch-tagged object names, and turns on
// dual-writes: from here every foreground write (contiguous, batched,
// Resize, Sync) lands on both layouts, so the migrator never races a
// write it cannot see. Migrate copies the file old → new through the
// driver's ResilverPolicy token bucket and verifies it byte for byte,
// re-verifying ranges foreground writes dirtied until a full pass is
// clean. Commit atomically flips the driver (and its open handles) to the
// new pool; it is idempotent, so in a multi-client run each client
// commits its own driver once the migrator reports success. Cleanup
// removes the old epoch's objects and must wait for every participant's
// Commit — until then other clients still read through the old layout.
//
// Cross-client sequencing (who migrates, when everyone commits) is the
// caller's job; the driver only guarantees that dual-writes make the copy
// safe and that Commit is a pure local pointer flip.
type Reshape struct {
	d      *StripedDAFSDriver
	shadow *StripedDAFSDriver
	epoch  uint32

	pairs []reshapePair

	// Old-layout identity, kept for Cleanup after Commit rewires d.
	oldClients  []*dafs.Client
	oldStriping layout.Striping
	oldEpoch    uint32

	committed bool
}

type reshapePair struct {
	h, sh *stripedHandle
	name  string
}

// Shadow returns the driver over the new layout (nil after Commit retires
// it into d).
func (rs *Reshape) Shadow() *StripedDAFSDriver { return rs.shadow }

// Epoch returns the membership epoch the reshape moves to.
func (rs *Reshape) Epoch() uint32 { return rs.epoch }

// PrepareReshape starts a reshape onto the given session pool and
// striping at the given membership epoch. Every open handle gets a shadow
// handle on the new layout (objects created under epoch-tagged names) and
// dual-writes begin. The pool must share the driver's NIC; the epoch must
// advance; re-silvering must be enabled — with Rate <= 0 the migrator
// could never copy, so the reshape refuses to start.
func (d *StripedDAFSDriver) PrepareReshape(p *sim.Proc, clients []*dafs.Client, st layout.Striping, epoch uint32) (*Reshape, error) {
	if d.next != nil {
		return nil, fmt.Errorf("%w: reshape already in progress", ErrReshape)
	}
	if d.Resilver.Rate <= 0 {
		return nil, fmt.Errorf("%w: re-silvering disabled", ErrReshape)
	}
	if epoch <= d.layoutEpoch {
		return nil, fmt.Errorf("%w: epoch %d does not advance %d", ErrReshape, epoch, d.layoutEpoch)
	}
	sd := NewStripedDAFSDriver(clients, st)
	sd.Retry = d.Retry
	sd.Resilver = d.Resilver
	sd.layoutEpoch = epoch
	// The shared epoch gauge tracks the ACTIVE layout; the constructor
	// stamped the shadow's default, so restore until Commit flips it.
	d.m.epochG.Set(int64(d.layoutEpoch))
	rs := &Reshape{
		d:           d,
		shadow:      sd,
		epoch:       epoch,
		oldClients:  d.clients,
		oldStriping: d.striping,
		oldEpoch:    d.layoutEpoch,
	}
	for _, h := range append([]*stripedHandle(nil), d.handles...) {
		if err := rs.attach(p, h); err != nil {
			rs.abort(p)
			return nil, err
		}
	}
	d.next = rs
	d.m.flight.Note(p.Now(), "reshape", "", int64(epoch), 0)
	return rs, nil
}

// attach opens the shadow handle for h on the new layout and starts
// mirroring its writes. Open calls this for handles opened mid-reshape.
func (rs *Reshape) attach(p *sim.Proc, h *stripedHandle) error {
	sh, err := rs.shadow.Open(p, h.name, ModeRdWr|ModeCreate)
	if err != nil {
		return fmt.Errorf("%w: shadow open %q: %w", ErrReshape, h.name, err)
	}
	h.shadow = sh.(*stripedHandle)
	rs.pairs = append(rs.pairs, reshapePair{h: h, sh: h.shadow, name: h.name})
	return nil
}

// abort detaches the shadow handles of a Prepare that failed partway.
func (rs *Reshape) abort(p *sim.Proc) {
	for _, pr := range rs.pairs {
		pr.h.shadow = nil
		pr.sh.Close(p)
	}
	rs.pairs = nil
}

// Migrate copies every open file onto the new layout, bounded by the
// driver's ResilverPolicy token bucket, and verifies the copy byte for
// byte. Ranges dirtied by concurrent foreground writes (which dual-write
// onto both layouts) are re-verified until a whole pass is clean; if the
// policy's pass budget runs out first, Migrate fails and the reshape can
// be retried or abandoned. Exactly one participant of a shared file runs
// Migrate.
func (rs *Reshape) Migrate(p *sim.Proc) error {
	tb := newTokenBucket(rs.d.Resilver, p.Now())
	chunk := rs.d.Resilver.chunk()
	buf := make([]byte, chunk)
	ver := make([]byte, chunk)
	for _, pr := range rs.pairs {
		if pr.h.closed {
			continue
		}
		if err := rs.migrateFile(p, tb, buf, ver, pr.h, pr.sh); err != nil {
			return err
		}
	}
	return nil
}

// migrateFile copies one file old → new in chunks: each pass re-reads the
// logical size, verifies every chunk against the shadow, and copies the
// ones that differ. A clean non-first pass means the copy converged.
func (rs *Reshape) migrateFile(p *sim.Proc, tb *tokenBucket, buf, ver []byte, h, sh *stripedHandle) error {
	d := rs.d
	chunk := len(buf)
	for pass := 0; pass < d.Resilver.passes(); pass++ {
		size, err := h.Size(p)
		if err != nil {
			return fmt.Errorf("%w: size %q: %w", ErrReshape, h.name, err)
		}
		clean := true
		for off := int64(0); off < size; off += int64(chunk) {
			n := chunk
			if rem := size - off; rem < int64(n) {
				n = int(rem)
			}
			tb.take(p, n)
			on, err := h.ReadContig(p, off, buf[:n])
			if err != nil {
				return fmt.Errorf("%w: read %q: %w", ErrReshape, h.name, err)
			}
			tb.take(p, on)
			sn, err := sh.ReadContig(p, off, ver[:on])
			if err != nil {
				return fmt.Errorf("%w: shadow read %q: %w", ErrReshape, h.name, err)
			}
			if sn == on && bytes.Equal(buf[:on], ver[:sn]) {
				continue
			}
			clean = false
			tb.take(p, on)
			if _, err := sh.WriteContig(p, off, buf[:on]); err != nil {
				return fmt.Errorf("%w: shadow write %q: %w", ErrReshape, h.name, err)
			}
			d.m.resilverB.Add(int64(on))
		}
		if clean {
			// Pin the logical size (the old file may have shrunk) and stop
			// once a pass after the first found nothing to fix.
			if err := sh.Resize(p, size); err != nil {
				return fmt.Errorf("%w: shadow resize %q: %w", ErrReshape, h.name, err)
			}
			if pass > 0 || size == 0 {
				return nil
			}
		}
	}
	return fmt.Errorf("%w: %q did not converge in %d passes (foreground writes outran the copy budget)",
		ErrReshape, h.name, d.Resilver.passes())
}

// Commit flips the driver onto the new layout: session pool, striping,
// transfer threshold, registration cache, staging pool, failure state,
// and every open handle's objects become the shadow's, the
// membership epoch advances, and dual-writes stop. Idempotent; purely
// local (no I/O), so every participant of a shared file can commit the
// moment the migrator reports success. Old sessions stay connected —
// draining servers keep servicing other clients until Cleanup and
// removal.
func (rs *Reshape) Commit(p *sim.Proc) {
	if rs.committed {
		return
	}
	rs.committed = true
	d, sd := rs.d, rs.shadow
	d.regCache = sd.regCache
	d.DirectThreshold = sd.DirectThreshold
	d.clients = sd.clients
	d.striping = sd.striping
	d.down = sd.down
	d.excluded = sd.excluded
	d.gaveUp = sd.gaveUp
	d.sessErr = sd.sessErr
	d.episode = sd.episode
	d.epoch = sd.epoch
	d.healing = sd.healing
	d.stagePool = sd.stagePool
	d.stageHi = sd.stageHi
	d.StagePoolMax = sd.StagePoolMax
	d.m = sd.m
	d.layoutEpoch = sd.layoutEpoch
	d.m.epochG.Set(int64(d.layoutEpoch))
	for _, pr := range rs.pairs {
		if pr.h.closed {
			continue
		}
		pr.h.fhs = pr.sh.fhs
		pr.h.shadow = nil
		pr.sh.closed = true // retired, not Closed: the objects live on in pr.h
	}
	d.next = nil
	rs.shadow = nil
	d.m.flight.Note(p.Now(), "commit", "", int64(rs.epoch), 0)
}

// Cleanup removes the old epoch's objects, best effort: absent objects
// and dead sessions are skipped (fail-stop leaves orphans, exactly like
// Delete on a degraded pool). Only the migrator cleans up, and only after
// EVERY participant has committed — other clients read through the old
// layout until their Commit.
func (rs *Reshape) Cleanup(p *sim.Proc) {
	if !rs.committed {
		return
	}
	st := rs.oldStriping
	for _, pr := range rs.pairs {
		for r := 0; r < st.R(); r++ {
			name := layout.EpochName(layout.ReplicaName(pr.name, r), rs.oldEpoch)
			for t := 0; t < st.Width; t++ {
				c := rs.oldClients[t]
				op, err := c.StartRemove(p, name)
				if err != nil {
					continue
				}
				op.Wait(p)
			}
		}
	}
}

// mirroredOp joins a write's old-layout and new-layout halves: the count
// is the active layout's, and a hard error on either side surfaces.
type mirroredOp struct {
	main, shadow AsyncOp
}

func (o mirroredOp) Wait(p *sim.Proc) (int, error) {
	n, err := o.main.Wait(p)
	if _, serr := o.shadow.Wait(p); err == nil && serr != nil {
		return 0, serr
	}
	return n, err
}
