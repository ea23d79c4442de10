// Fixture for the regmem analyzer: via.Region values must originate in
// the NIC registration API; descriptors posted to the work queues must
// carry one.
package a

import (
	"dafsio/internal/sim"
	"dafsio/internal/via"
)

var zero via.Region // want `variable of value type via\.Region`

func forgeLiteral() *via.Region {
	return &via.Region{Handle: 7} // want `via\.Region composite literal`
}

func forgeNew() *via.Region {
	return new(via.Region) // want `new\(via\.Region\)`
}

func postMissingRegion(p *sim.Proc, vi *via.VI) {
	_ = vi.PrepostRecv(&via.Descriptor{Len: 64}) // want `PrepostRecv with descriptor missing its Region`
}

func postNilRegion(p *sim.Proc, vi *via.VI) {
	_ = vi.PostSend(p, &via.Descriptor{Op: via.OpSend, Region: nil}) // want `PostSend descriptor's Region is nil`
}

func postNilVar(p *sim.Proc, vi *via.VI) {
	var r *via.Region
	r = nil
	d := &via.Descriptor{Op: via.OpSend, Region: r} // want `PostSend descriptor's Region is nil`
	_ = vi.PostSend(p, d)
}

func postDerefCopy(p *sim.Proc, vi *via.VI, r *via.Region) {
	// A dereferencing copy severs the tie to the NIC's translation entry;
	// the short declaration is flagged like a var spec would be.
	cp := *r // want `variable of value type via\.Region`
	_ = vi.PostSend(p, &via.Descriptor{Op: via.OpSend, Region: &cp})
}

func localLaunder(r *via.Region) via.Region { // want `via\.Region by value in a function signature`
	return *r
}

func goodRegistered(p *sim.Proc, n *via.NIC, vi *via.VI, buf []byte) {
	r := n.Register(p, buf)
	_ = vi.PostRecv(p, &via.Descriptor{Region: r, Len: r.Len()})
}

func goodRing(p *sim.Proc, n *via.NIC, vi *via.VI) {
	r := n.RegisterRing(p, 8, 512)
	_ = vi.PostRecv(p, &via.Descriptor{Region: r, Offset: 512, Len: 512})
}

func goodCached(n *via.NIC, vi *via.VI, buf []byte) {
	r := n.RegisterCached(buf)
	_ = vi.PrepostRecv(&via.Descriptor{Region: r, Len: r.Len()})
}

func goodParam(p *sim.Proc, vi *via.VI, r *via.Region) error {
	// A *via.Region parameter is a conduit: its producer is checked at
	// the caller.
	d := &via.Descriptor{Op: via.OpRDMAWrite, Region: r, Len: r.Len()}
	return vi.PostSend(p, d)
}

// Aggregate-shaped staging: a per-server gather plan packs noncontiguous
// fragments into one staging buffer and posts it for RDMA in a batch
// request. The staging buffer — pooled or freshly allocated — must carry
// the region it was registered under.

type stage struct {
	buf []byte
	reg *via.Region
}

func gatherStageUnregistered(p *sim.Proc, vi *via.VI, frags [][]byte) {
	staging := make([]byte, 1<<20)
	off := 0
	for _, f := range frags {
		off += copy(staging[off:], f)
	}
	_ = vi.PostSend(p, &via.Descriptor{Op: via.OpRDMAWrite, Len: off}) // want `PostSend with descriptor missing its Region`
}

func gatherStageNilRegion(p *sim.Proc, vi *via.VI, frags [][]byte) {
	s := &stage{buf: make([]byte, 1<<20)}
	off := 0
	for _, f := range frags {
		off += copy(s.buf[off:], f)
	}
	_ = vi.PostSend(p, &via.Descriptor{Op: via.OpRDMAWrite, Region: nil, Len: off}) // want `PostSend descriptor's Region is nil`
}

func gatherStageRegistered(p *sim.Proc, n *via.NIC, vi *via.VI, frags [][]byte) {
	s := &stage{buf: make([]byte, 1<<20)}
	s.reg = n.Register(p, s.buf)
	off := 0
	for _, f := range frags {
		off += copy(s.buf[off:], f)
	}
	_ = vi.PostSend(p, &via.Descriptor{Op: via.OpRDMAWrite, Region: s.reg, Len: off})
}
