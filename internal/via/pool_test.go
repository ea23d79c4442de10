package via

import (
	"bytes"
	"testing"

	"dafsio/internal/fault"
	"dafsio/internal/model"
	"dafsio/internal/sim"
)

// seededFaults duplicates and drops cells sent by both nodes of a pair
// during the first 6 ms, from fixed seeds.
func seededFaults(k *sim.Kernel) *fault.Injector {
	return fault.New(k, fault.Merge(
		fault.Scatter(1, fault.DupCell, "a", 40, sim.Microsecond, 6*sim.Millisecond),
		fault.Scatter(6, fault.DropCell, "a", 3, sim.Microsecond, 6*sim.Millisecond),
		fault.Scatter(3, fault.DupCell, "b", 20, sim.Microsecond, 6*sim.Millisecond),
		fault.Scatter(4, fault.DropCell, "b", 1, sim.Microsecond, 6*sim.Millisecond),
	))
}

// Back-to-back sends, RDMA writes and RDMA reads with distinct payloads,
// under injected cell drops and duplicates in both directions. Every
// message either arrives byte-exact or never completes; no destination
// ever holds bytes of another message. Cell payload buffers are recycled
// between messages, so a buffer reused too early would show up here as
// a foreign payload.
func TestFaultedMessagesNeverMixPayloads(t *testing.T) {
	const (
		msgs     = 12
		size     = 20000 // three cells per message
		sentinel = 0xEE
	)
	p2 := newPair(model.CLAN1998())
	p2.nicA.prov.Faults = seededFaults(p2.k)
	// Message m of op o carries pattern seed o*msgs+m.
	want := func(o, m int) []byte {
		b := make([]byte, size)
		fill(b, byte(7*(o*msgs+m)+1))
		return b
	}
	const (
		opSend = iota
		opWrite
		opRead
	)
	var (
		recvBuf, writeDst, readDst []byte
		recvDone                   []Completion
		sendDone                   = map[*Descriptor]Completion{}
		descOp                     = map[*Descriptor][2]int{}
	)
	srcReady := sim.NewFuture[[2]MemHandle](p2.k)
	p2.k.Spawn("b", func(p *sim.Proc) {
		recv := p2.nicB.Register(p, bytes.Repeat([]byte{sentinel}, msgs*size))
		dst := p2.nicB.Register(p, bytes.Repeat([]byte{sentinel}, msgs*size))
		src := p2.nicB.Register(p, make([]byte, msgs*size))
		for m := 0; m < msgs; m++ {
			copy(src.Bytes()[m*size:], want(opRead, m))
			if err := p2.viB.PostRecv(p, &Descriptor{Region: recv, Offset: m * size, Len: size}); err != nil {
				t.Error(err)
			}
		}
		srcReady.Set([2]MemHandle{dst.Handle, src.Handle})
		p.Wait(100 * sim.Millisecond) // the deadline: anything later has timed out
		for c, ok := p2.viB.RecvCQ.Poll(); ok; c, ok = p2.viB.RecvCQ.Poll() {
			recvDone = append(recvDone, c)
		}
		recvBuf, writeDst = recv.Bytes(), dst.Bytes()
	})
	p2.k.Spawn("a", func(p *sim.Proc) {
		h := srcReady.Get(p)
		src := p2.nicA.Register(p, make([]byte, 2*msgs*size))
		dst := p2.nicA.Register(p, bytes.Repeat([]byte{sentinel}, msgs*size))
		for m := 0; m < msgs; m++ {
			copy(src.Bytes()[m*size:], want(opSend, m))
			copy(src.Bytes()[(msgs+m)*size:], want(opWrite, m))
		}
		for m := 0; m < msgs; m++ {
			for o, d := range []*Descriptor{
				{Op: OpSend, Region: src, Offset: m * size, Len: size},
				{Op: OpRDMAWrite, Region: src, Offset: (msgs + m) * size, Len: size, RemoteHandle: h[0], RemoteOffset: m * size},
				{Op: OpRDMARead, Region: dst, Offset: m * size, Len: size, RemoteHandle: h[1], RemoteOffset: m * size},
			} {
				descOp[d] = [2]int{o, m}
				if err := p2.viA.PostSend(p, d); err != nil {
					t.Error(err)
				}
			}
		}
		p.Wait(100 * sim.Millisecond)
		for c, ok := p2.viA.SendCQ.Poll(); ok; c, ok = p2.viA.SendCQ.Poll() {
			sendDone[c.Desc] = c
		}
		readDst = dst.Bytes()
	})
	if err := p2.k.Run(); err != nil {
		t.Fatal(err)
	}

	// Receives match posted buffers in arrival order, and a message lost
	// whole consumes none, so identify each delivered message by content.
	next := 0
	for _, c := range recvDone {
		got := recvBuf[c.Desc.Offset : c.Desc.Offset+size]
		m := next
		for m < msgs && !bytes.Equal(got, want(opSend, m)) {
			m++
		}
		if c.Err != nil || c.Len != size || m == msgs {
			t.Fatalf("receive into slot %d (len %d, err %v) is not the next undelivered message", c.Desc.Offset/size, c.Len, c.Err)
		}
		next = m + 1
	}
	lost := msgs - len(recvDone)
	for d, om := range descOp {
		o, m := om[0], om[1]
		var slot []byte
		switch o {
		case opSend:
			continue // checked above
		case opWrite:
			slot = writeDst[m*size : (m+1)*size]
		case opRead:
			slot = readDst[m*size : (m+1)*size]
		}
		w := want(o, m)
		if c, ok := sendDone[d]; ok && c.Err == nil {
			if !bytes.Equal(slot, w) {
				t.Errorf("%v %d completed but its destination differs from its payload", d.Op, m)
			}
			continue
		}
		lost++
		// A lost transfer may have placed some of its own cells; every
		// byte is still either untouched or its own.
		for i := range slot {
			if slot[i] != sentinel && slot[i] != w[i] {
				t.Fatalf("lost %v %d: byte %d is %#x, neither untouched nor its own", d.Op, m, i, slot[i])
			}
		}
	}
	if lost == 0 || lost == 3*msgs {
		t.Fatalf("%d of %d messages lost: the fault plan no longer exercises both outcomes", lost, 3*msgs)
	}
}

// BenchmarkPostRecv64K measures one 64 KB send from post to both
// completions (the receive and the sender's delivery ack).
func BenchmarkPostRecv64K(b *testing.B) {
	const n = 64 << 10
	p2 := newPair(model.CLAN1998())
	p2.k.Spawn("bench", func(p *sim.Proc) {
		src := p2.nicA.Register(p, make([]byte, n))
		dst := p2.nicB.Register(p, make([]byte, n))
		b.SetBytes(n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := p2.viB.PostRecv(p, &Descriptor{Region: dst, Len: n}); err != nil {
				b.Error(err)
				return
			}
			if err := p2.viA.PostSend(p, &Descriptor{Op: OpSend, Region: src, Len: n}); err != nil {
				b.Error(err)
				return
			}
			if c := p2.viB.RecvCQ.Wait(p); c.Err != nil {
				b.Error(c.Err)
				return
			}
			if c := p2.viA.SendCQ.Wait(p); c.Err != nil {
				b.Error(c.Err)
				return
			}
		}
	})
	if err := p2.k.Run(); err != nil {
		b.Fatal(err)
	}
}
