package via

import "dafsio/internal/sim"

// MemHandle is the protection tag a NIC hands out for a registered region.
// Remote peers must present a valid handle (and stay within its bounds) for
// RDMA access — this is the VIA memory-protection model.
type MemHandle uint32

// Region is a registered (pinned, NIC-translatable) memory area. Local
// descriptors and remote RDMA operations may only touch registered memory.
//
// A flat region (Register, RegisterCached) is one host slice. A ring
// region (RegisterRing) is modeled as one slots*size registration but
// keeps no host bytes of its own: each slot borrows a buffer from the
// provider's free list while it holds a message (see RegisterRing).
type Region struct {
	Handle MemHandle

	nic   *NIC
	buf   []byte // flat regions only
	valid bool

	// Ring regions: slotSize > 0, and slots[i] holds slot i's borrowed
	// bytes, nil while the slot is empty.
	slotSize int
	slots    [][]byte
}

// Register pins buf and installs its translation on the NIC. The
// registration cost (pinning plus NIC table update) is charged to the host
// CPU in the calling process — the cost the paper's registration-cache
// experiment measures.
func (n *NIC) Register(p *sim.Proc, buf []byte) *Region {
	n.Node.Compute(p, n.prov.Prof.RegCost(len(buf)))
	return n.install(&Region{buf: buf})
}

// RegisterRing registers a ring of slots message buffers of size bytes
// each: a pre-posted receive or send window. The modeled registration is
// exactly Register's on a slots*size buffer (the same cost, the next
// handle, one pinned region), but the host memory behind it is lazy. A
// slot takes bytes from the provider's free list on first touch — a host
// write through Slot or the NIC's DMA of an arriving message — and hands
// them back when the slot returns to the NIC: posted as a receive, or when
// the send or RDMA write reading it completes. An idle ring holds no bytes.
//
// Slot bytes are undefined until written: a slot may receive another
// slot's stale bytes from the list, and the NIC reads an empty slot as
// zeros. Every descriptor over a ring must lie inside one slot, and the
// ring accepts no remote RDMA (lookup refuses it, like a VIA region
// registered without RDMA enable).
func (n *NIC) RegisterRing(p *sim.Proc, slots, size int) *Region {
	n.Node.Compute(p, n.prov.Prof.RegCost(slots*size))
	return n.install(&Region{slotSize: size, slots: make([][]byte, slots)})
}

// install gives r the next handle and enters it in the NIC's table.
func (n *NIC) install(r *Region) *Region {
	n.nextHandle++
	r.Handle, r.nic, r.valid = n.nextHandle, n, true
	n.regions[r.Handle] = r
	return r
}

// Deregister releases the registration. Outstanding descriptors that still
// reference the region will complete with ErrInvalidRegion. A ring's
// borrowed bytes are left to the garbage collector, never handed back to
// the free list: a send that passed its validity check may still be
// streaming cells out of them.
func (n *NIC) Deregister(p *sim.Proc, r *Region) {
	if r.nic != n || !r.valid {
		return
	}
	n.Node.Compute(p, n.prov.Prof.MemDeregCost)
	r.valid = false
	delete(n.regions, r.Handle)
}

// RegisterCached installs a registration with no CPU cost, modeling memory
// that was pinned and registered ahead of time — the way a DAFS server
// pre-registers its buffer cache at boot so per-request registration never
// appears on the data path. Use DropCached to release it.
func (n *NIC) RegisterCached(buf []byte) *Region {
	return n.install(&Region{buf: buf})
}

// DropCached releases a RegisterCached region without CPU cost.
func (n *NIC) DropCached(r *Region) {
	if r.nic != n || !r.valid {
		return
	}
	r.valid = false
	delete(n.regions, r.Handle)
}

// Regions returns the number of live registrations on the NIC — pinned
// windows the host cannot reclaim until they are deregistered. Tests use
// it to assert registration hygiene: a failed dial, a torn-down session,
// or a trimmed buffer pool must not leave windows pinned.
func (n *NIC) Regions() int { return len(n.regions) }

// Len returns the region's size in bytes.
func (r *Region) Len() int {
	if r.slotSize > 0 {
		return len(r.slots) * r.slotSize
	}
	return len(r.buf)
}

// Bytes exposes the underlying memory of a flat region so the application
// can fill or read it, the way a user buffer is used around VIA
// operations. A ring has no flat memory and returns nil; use Slot.
func (r *Region) Bytes() []byte { return r.buf }

// Slot returns the host bytes at [off, off+n) for the application to fill
// or read. On a ring the range must lie inside one slot, and an empty slot
// takes its bytes from the free list here (their contents are stale until
// written). On a flat region it is just Bytes()[off:off+n].
func (r *Region) Slot(off, n int) []byte {
	if r.slotSize == 0 {
		return r.buf[off : off+n]
	}
	i, at := off/r.slotSize, off%r.slotSize
	if r.slots[i] == nil {
		r.slots[i] = r.nic.prov.ringBuf(r.slotSize)
	}
	return r.slots[i][at : at+n]
}

// Valid reports whether the region is still registered.
func (r *Region) Valid() bool { return r.valid }

// inBounds reports whether [off, off+length) is a legal descriptor range:
// inside the region, and inside one slot of a ring.
func (r *Region) inBounds(off, length int) bool {
	if off < 0 || length < 0 || off+length > r.Len() {
		return false
	}
	return r.slotSize == 0 || off < r.Len() && off%r.slotSize+length <= r.slotSize
}

// peek returns the bytes at [off, off+n) for the NIC to read, or nil for
// an empty ring slot, which reads as zeros.
func (r *Region) peek(off, n int) []byte {
	if r.slotSize == 0 {
		return r.buf[off : off+n]
	}
	b := r.slots[off/r.slotSize]
	if b == nil {
		return nil
	}
	at := off % r.slotSize
	return b[at : at+n]
}

// release hands the bytes of the ring slot holding off back to the free
// list, once the NIC owns the slot again. Flat and deregistered regions
// keep theirs.
func (r *Region) release(off int) {
	if r.slotSize == 0 || !r.valid {
		return
	}
	i := off / r.slotSize
	if b := r.slots[i]; b != nil {
		r.slots[i] = nil
		r.nic.prov.freeRing(b)
	}
}

// lookup validates a remote handle and byte range; it returns the region
// only if the whole range is inside it. Rings are never RDMA targets.
func (n *NIC) lookup(h MemHandle, off, length int) *Region {
	r := n.regions[h]
	if r == nil || !r.valid || r.slotSize > 0 || !r.inBounds(off, length) {
		return nil
	}
	return r
}
