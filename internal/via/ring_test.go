package via

import (
	"bytes"
	"testing"

	"dafsio/internal/model"
	"dafsio/internal/sim"
)

// A ring's modeled registration is Register's on a slots*size buffer: the
// same CPU charge, the next handle, one more pinned region, the same length.
func TestRingRegistrationMatchesFlat(t *testing.T) {
	const slots, size = 8, 8720
	prof := model.CLAN1998()
	p2 := newPair(prof)
	p2.k.Spawn("p", func(p *sim.Proc) {
		t0 := p.Now()
		flat := p2.nicA.Register(p, make([]byte, slots*size))
		t1 := p.Now()
		ring := p2.nicA.RegisterRing(p, slots, size)
		t2 := p.Now()
		if t1-t0 != t2-t1 || t2-t1 != prof.RegCost(slots*size) {
			t.Errorf("ring registration took %v, flat %v, want %v", t2-t1, t1-t0, prof.RegCost(slots*size))
		}
		if ring.Handle != flat.Handle+1 || p2.nicA.Regions() != 2 || ring.Len() != flat.Len() {
			t.Errorf("ring handle %d after flat %d, %d regions, len %d vs %d",
				ring.Handle, flat.Handle, p2.nicA.Regions(), ring.Len(), flat.Len())
		}
		p2.nicA.Deregister(p, ring)
		if p2.nicA.Regions() != 1 {
			t.Errorf("%d regions after deregistering the ring, want 1", p2.nicA.Regions())
		}
	})
	if err := p2.k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRingDescriptorCrossingSlotIsBounds(t *testing.T) {
	p2 := newPair(model.CLAN1998())
	p2.k.Spawn("p", func(p *sim.Proc) {
		r := p2.nicA.RegisterRing(p, 4, 100)
		for _, d := range []struct{ off, n int }{{50, 100}, {90, 20}, {0, 101}, {400, 0}, {-1, 1}} {
			if err := p2.viA.PostSend(p, &Descriptor{Op: OpSend, Region: r, Offset: d.off, Len: d.n}); err != ErrBounds {
				t.Errorf("send [%d,+%d): %v, want ErrBounds", d.off, d.n, err)
			}
			if err := p2.viA.PostRecv(p, &Descriptor{Region: r, Offset: d.off, Len: d.n}); err != ErrBounds {
				t.Errorf("recv [%d,+%d): %v, want ErrBounds", d.off, d.n, err)
			}
			if err := p2.viA.PrepostRecv(&Descriptor{Region: r, Offset: d.off, Len: d.n}); err != ErrBounds {
				t.Errorf("prepost [%d,+%d): %v, want ErrBounds", d.off, d.n, err)
			}
		}
		if err := p2.viA.PostRecv(p, &Descriptor{Region: r, Offset: 100, Len: 100}); err != nil {
			t.Errorf("a whole slot: %v", err)
		}
	})
	if err := p2.k.Run(); err != nil {
		t.Fatal(err)
	}
}

// Rings are registered without RDMA enable: a peer naming a ring's handle
// in an RDMA write or read gets a protection error, even for a range
// inside one slot.
func TestRingRefusesRemoteRDMA(t *testing.T) {
	p2 := newPair(model.CLAN1998())
	ready := sim.NewFuture[MemHandle](p2.k)
	p2.k.Spawn("target", func(p *sim.Proc) {
		ready.Set(p2.nicB.RegisterRing(p, 4, 100).Handle)
	})
	p2.k.Spawn("initiator", func(p *sim.Proc) {
		h := ready.Get(p)
		local := p2.nicA.Register(p, make([]byte, 64))
		for _, op := range []Op{OpRDMAWrite, OpRDMARead} {
			if err := p2.viA.PostSend(p, &Descriptor{Op: op, Region: local, Len: 64, RemoteHandle: h, RemoteOffset: 100}); err != nil {
				t.Error(err)
				return
			}
			if c := p2.viA.SendCQ.Wait(p); c.Err != ErrProtection {
				t.Errorf("%v on a ring: %v, want ErrProtection", op, c.Err)
			}
		}
	})
	if err := p2.k.Run(); err != nil {
		t.Fatal(err)
	}
}

// A slot holds bytes only between its first touch and its return to the
// NIC: a host write takes them, the send's completion hands them back, the
// NIC's DMA of an arriving message takes them again, and posting the slot
// as a receive hands them back. An empty slot is sent as zeros.
func TestRingSlotHoldsBytesOnlyWhileInUse(t *testing.T) {
	const size = 20000 // three cells
	p2 := newPair(model.CLAN1998())
	empty := func(r *Region) bool {
		for _, b := range r.slots {
			if b != nil {
				return false
			}
		}
		return true
	}
	p2.k.Spawn("p", func(p *sim.Proc) {
		snd := p2.nicA.RegisterRing(p, 2, size)
		rcv := p2.nicB.RegisterRing(p, 2, size)
		for i := 0; i < 2; i++ {
			if err := p2.viB.PostRecv(p, &Descriptor{Region: rcv, Offset: i * size, Len: size}); err != nil {
				t.Error(err)
				return
			}
		}
		want := make([]byte, size)
		fill(want, 3)
		copy(snd.Slot(0, size), want)
		if empty(snd) {
			t.Error("a written slot holds no bytes")
			return
		}
		for i := 0; i < 2; i++ { // slot 1 was never written
			if err := p2.viA.PostSend(p, &Descriptor{Op: OpSend, Region: snd, Offset: i * size, Len: size}); err != nil {
				t.Error(err)
				return
			}
			if c := p2.viA.SendCQ.Wait(p); c.Err != nil {
				t.Error(c.Err)
				return
			}
			if c := p2.viB.RecvCQ.Wait(p); c.Err != nil || c.Len != size {
				t.Errorf("receive %d: len %d, err %v", i, c.Len, c.Err)
				return
			}
		}
		if !empty(snd) {
			t.Error("send ring still holds bytes after its sends completed")
		}
		if !bytes.Equal(rcv.Slot(0, size), want) {
			t.Error("slot 0 did not arrive intact")
		}
		if !bytes.Equal(rcv.Slot(size, size), make([]byte, size)) {
			t.Error("an empty slot was not sent as zeros")
		}
		for i := 0; i < 2; i++ {
			if err := p2.viB.PostRecv(p, &Descriptor{Region: rcv, Offset: i * size, Len: size}); err != nil {
				t.Error(err)
				return
			}
		}
		if !empty(rcv) {
			t.Error("receive ring still holds bytes after its slots were reposted")
		}
	})
	if err := p2.k.Run(); err != nil {
		t.Fatal(err)
	}
}

// Two sessions on the same pair of NICs, one in each direction, share the
// provider's free list: every completed send and every reposted receive
// hands its slot's bytes to whichever slot is touched next. Under the
// seeded drop/duplicate plans, every delivered message is still exactly
// one of its own session's payloads, in order, and never another's.
func TestRingSessionsNeverSeeEachOthersBytes(t *testing.T) {
	const (
		msgs     = 12
		size     = 20000 // three cells
		pace     = 150 * sim.Microsecond
		deadline = 100 * sim.Millisecond
	)
	p2 := newPair(model.CLAN1998())
	p2.nicA.prov.Faults = seededFaults(p2.k)
	viA2 := p2.nicA.NewVI(p2.nicA.NewCQ("a2.scq"), p2.nicA.NewCQ("a2.rcq"))
	viB2 := p2.nicB.NewVI(p2.nicB.NewCQ("b2.scq"), p2.nicB.NewCQ("b2.rcq"))
	Connect(viA2, viB2)
	want := func(s, m int) []byte {
		b := make([]byte, size)
		fill(b, byte(7*(s*msgs+m)+1))
		return b
	}
	sessions := []struct {
		name       string
		snd, rcv   *VI
		sNIC, rNIC *NIC
	}{
		{"a->b", p2.viA, p2.viB, p2.nicA, p2.nicB},
		{"b->a", viB2, viA2, p2.nicB, p2.nicA},
	}
	delivered := make([]int, len(sessions))
	for s, ss := range sessions {
		ready := sim.NewFuture[bool](p2.k)
		p2.k.Spawn(ss.name+".recv", func(p *sim.Proc) {
			rcv := ss.rNIC.RegisterRing(p, msgs, size)
			for m := 0; m < msgs; m++ {
				if err := ss.rcv.PostRecv(p, &Descriptor{Region: rcv, Offset: m * size, Len: size}); err != nil {
					t.Error(err)
				}
			}
			ready.Set(true)
			next := 0
			for p.Now() < deadline {
				for c, ok := ss.rcv.RecvCQ.Poll(); ok; c, ok = ss.rcv.RecvCQ.Poll() {
					got := rcv.Slot(c.Desc.Offset, size)
					m := next
					for m < msgs && !bytes.Equal(got, want(s, m)) {
						m++
					}
					if c.Err != nil || c.Len != size || m == msgs {
						t.Errorf("%s: receive into slot %d (len %d, err %v) is not the next undelivered message", ss.name, c.Desc.Offset/size, c.Len, c.Err)
						return
					}
					next = m + 1
					delivered[s]++
					// Hand the bytes back right away, while the other
					// session is still taking slots.
					if err := ss.rcv.PostRecv(p, &Descriptor{Region: rcv, Offset: c.Desc.Offset, Len: size}); err != nil {
						t.Error(err)
					}
				}
				p.Wait(10 * sim.Microsecond)
			}
		})
		p2.k.Spawn(ss.name+".send", func(p *sim.Proc) {
			ready.Get(p)
			snd := ss.sNIC.RegisterRing(p, msgs, size)
			for m := 0; m < msgs; m++ {
				copy(snd.Slot(m*size, size), want(s, m))
				if err := ss.snd.PostSend(p, &Descriptor{Op: OpSend, Region: snd, Offset: m * size, Len: size}); err != nil {
					t.Error(err)
				}
				p.Wait(pace)
				for _, ok := ss.snd.SendCQ.Poll(); ok; _, ok = ss.snd.SendCQ.Poll() {
				}
			}
		})
	}
	if err := p2.k.Run(); err != nil {
		t.Fatal(err)
	}
	if lost := 2*msgs - delivered[0] - delivered[1]; lost == 0 || lost == 2*msgs {
		t.Fatalf("%d of %d messages lost: the fault plan no longer exercises both outcomes", lost, 2*msgs)
	}
}

// Deregistering a ring while a send is still streaming out of one of its
// slots must not hand the slot's bytes to the next ring: the stream keeps
// reading them, so the message arrives as written, and a ring registered
// afterwards never gets them.
func TestDeregisteredRingBytesNeverReused(t *testing.T) {
	const size = 20000 // three cells
	p2 := newPair(model.CLAN1998())
	p2.k.Spawn("p", func(p *sim.Proc) {
		dst := p2.nicB.Register(p, make([]byte, size))
		if err := p2.viB.PostRecv(p, &Descriptor{Region: dst, Len: size}); err != nil {
			t.Error(err)
			return
		}
		old := p2.nicA.RegisterRing(p, 2, size)
		want := make([]byte, size)
		fill(want, 9)
		oldBytes := old.Slot(0, size)
		copy(oldBytes, want)
		if err := p2.viA.PostSend(p, &Descriptor{Op: OpSend, Region: old, Len: size}); err != nil {
			t.Error(err)
			return
		}
		for p2.nicA.Stats().CellsOut == 0 {
			p.Wait(sim.Microsecond)
		}
		p2.nicA.Deregister(p, old)
		next := p2.nicA.RegisterRing(p, 2, size)
		for i := 0; i < 2; i++ {
			b := next.Slot(i*size, size)
			if &b[0] == &oldBytes[0] {
				t.Error("a deregistered ring's slot bytes were handed to a new ring")
			}
			clear(b)
		}
		if c := p2.viA.SendCQ.Wait(p); c.Err != nil {
			t.Error(c.Err)
			return
		}
		if c := p2.viB.RecvCQ.Wait(p); c.Err != nil {
			t.Error(c.Err)
			return
		}
		if !bytes.Equal(dst.Bytes(), want) {
			t.Error("the message streamed from the deregistered ring changed in flight")
		}
	})
	if err := p2.k.Run(); err != nil {
		t.Fatal(err)
	}
}
