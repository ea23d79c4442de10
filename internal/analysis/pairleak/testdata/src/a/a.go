// Fixture for the pairleak pass: acquire/release pairing across branches,
// loops, defers, early returns, panic paths, and ownership escapes.
package a

import (
	"errors"

	"dafsio/internal/sim"
	"dafsio/internal/via"
)

type node struct {
	res *sim.Resource
	nic *via.NIC
	ch  *sim.Chan[int]
}

var errBad = errors.New("bad")

type holder struct {
	reg *via.Region
}

// Balanced resource pair: clean.
func okResourcePair(p *sim.Proc, n *node) {
	n.res.Acquire(p, 1)
	n.res.Release(1)
}

// Resource units acquired and never released.
func badResourceLeak(p *sim.Proc, n *node) {
	n.res.Acquire(p, 1) // want `resource units acquired on n\.res is not released on every path to return`
}

// Released on the happy path, leaked on the early return.
func badResourceEarlyReturn(p *sim.Proc, n *node, c bool) {
	n.res.Acquire(p, 1) // want `resource units acquired on n\.res is not released on every path to return`
	if c {
		return
	}
	n.res.Release(1)
}

// A deferred release covers every exit, early returns included.
func okDeferRelease(p *sim.Proc, n *node, c bool) {
	n.res.Acquire(p, 1)
	defer n.res.Release(1)
	if c {
		return
	}
	n.ch.Send(p, 1)
}

// The panic path is not a leak exit: a panicking proc abandons the run.
func okPanicPath(p *sim.Proc, n *node, c bool) {
	n.res.Acquire(p, 1)
	if c {
		panic("boom")
	}
	n.res.Release(1)
}

// Registered region released on every path: clean.
func okRegionPair(p *sim.Proc, n *node, buf []byte) {
	r := n.nic.Register(p, buf)
	n.nic.Deregister(p, r)
}

// Registered region leaked on one branch of a multi-return.
func badRegionMultiReturn(p *sim.Proc, n *node, buf []byte, c bool) (int, error) {
	r := n.nic.Register(p, buf) // want `registered region from NIC\.Register is not released on every path to return`
	if c {
		return 0, nil
	}
	n.nic.Deregister(p, r)
	return len(buf), nil
}

// The result is dropped on the floor: leaked the instant it is acquired.
func badRegionDropped(p *sim.Proc, n *node, buf []byte) {
	n.nic.Register(p, buf) // want `result of acquire dropped: registered region from NIC\.Register is never released`
}

// A message ring leaked on the error path, the shape of a session dial
// that fails after registering its rings.
func badRingErrorPath(p *sim.Proc, n *node, c bool) error {
	r := n.nic.RegisterRing(p, 8, 512) // want `registered ring from NIC\.RegisterRing is not released on every path to return`
	if c {
		return errBad
	}
	n.nic.Deregister(p, r)
	return nil
}

// A ring released on every path: clean.
func okRingPair(p *sim.Proc, n *node, c bool) error {
	r := n.nic.RegisterRing(p, 8, 512)
	if c {
		n.nic.Deregister(p, r)
		return errBad
	}
	n.nic.Deregister(p, r)
	return nil
}

// Returned: ownership moves to the caller — clean here.
func okRegionReturned(p *sim.Proc, n *node, buf []byte) *via.Region {
	r := n.nic.Register(p, buf)
	return r
}

// Stored into a struct that outlives the call: the holder owns it.
func okRegionEscapesToStruct(p *sim.Proc, n *node, buf []byte) *holder {
	r := n.nic.Register(p, buf)
	return &holder{reg: r}
}

// Handed to another function: the callee's obligation now.
func consume(p *sim.Proc, n *node, r *via.Region) {
	n.nic.Deregister(p, r)
}

func okRegionHandedOff(p *sim.Proc, n *node, buf []byte) {
	r := n.nic.Register(p, buf)
	consume(p, n, r)
}

// Loop re-acquire: the previous region can never be released again once
// the variable is overwritten on the back edge.
func badLoopReacquire(p *sim.Proc, n *node, bufs [][]byte) {
	var r *via.Region
	for _, buf := range bufs {
		r = n.nic.Register(p, buf) // want `registered region from NIC\.Register is reacquired while a previous acquisition may still be unreleased`
	}
	n.nic.Deregister(p, r)
}

// Balanced per iteration: clean.
func okLoopBalanced(p *sim.Proc, n *node, bufs [][]byte) {
	for _, buf := range bufs {
		r := n.nic.Register(p, buf)
		n.nic.Deregister(p, r)
	}
}

// Aggregate pattern: every element registered into a slice, every element
// released through the range alias — clean.
func okSliceAggregate(p *sim.Proc, n *node, bufs [][]byte) {
	regs := make([]*via.Region, len(bufs))
	for i, buf := range bufs {
		regs[i] = n.nic.Register(p, buf)
	}
	for _, r := range regs {
		n.nic.Deregister(p, r)
	}
}

// Aggregate leak: the error path returns without releasing the slice.
func badSliceAggregate(p *sim.Proc, n *node, bufs [][]byte, c bool) error {
	regs := make([]*via.Region, len(bufs))
	for i, buf := range bufs {
		regs[i] = n.nic.Register(p, buf) // want `registered region from NIC\.Register is not released on every path to return`
	}
	if c {
		return errBoom
	}
	for _, r := range regs {
		n.nic.Deregister(p, r)
	}
	return nil
}

// A documented ownership transfer: the peer proc releases the units.
func okIgnored(p *sim.Proc, n *node) {
	//mpiolint:ignore pairleak units released by the consumer proc on delivery
	n.res.Acquire(p, 1)
	n.ch.Send(p, 1)
}

type boomErr struct{}

func (boomErr) Error() string { return "boom" }

var errBoom error = boomErr{}
