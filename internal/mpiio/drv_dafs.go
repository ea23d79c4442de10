package mpiio

import (
	"errors"
	"fmt"
	"reflect"

	"dafsio/internal/dafs"
	"dafsio/internal/layout"
	"dafsio/internal/sim"
	"dafsio/internal/via"
)

// NewDAFSDriver binds MPI-IO to one DAFS session: the width-1 striping,
// whose identity layout makes every request exactly one operation on the
// session.
func NewDAFSDriver(client *dafs.Client) *StripedDAFSDriver {
	return NewStripedDAFSDriver([]*dafs.Client{client}, layout.Striping{Width: 1})
}

func mapDafsErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, dafs.ErrNoEnt):
		return ErrNoEnt
	case errors.Is(err, dafs.ErrExist):
		return ErrExist
	default:
		return fmt.Errorf("mpiio: dafs: %w", err)
	}
}

// regCache is the DAFS driver's registration cache: direct I/O needs the
// user buffer registered with the NIC, which costs real CPU time, so
// registrations are cached keyed by buffer address and repeated I/O from
// the same buffers (the common MPI pattern) pays the pinning cost once.
// All sessions of a pool share the client's one NIC, so one registration
// serves every per-server fragment of a request.
type regCache struct {
	nic *via.NIC

	// RegCache enables the registration cache (default on).
	RegCache bool

	cache    map[uintptr]*regEntry
	order    []uintptr
	cacheCap int

	// Stats.
	RegHits, RegMisses int64
}

type regEntry struct {
	reg *via.Region
	n   int
}

func newRegCache(nic *via.NIC) *regCache {
	return &regCache{nic: nic, RegCache: true, cache: make(map[uintptr]*regEntry), cacheCap: 64}
}

// region returns a registration covering buf, from the cache when enabled.
func (rc *regCache) region(p *sim.Proc, buf []byte) *via.Region {
	nic := rc.nic
	if !rc.RegCache {
		return nic.Register(p, buf)
	}
	key := reflect.ValueOf(buf).Pointer()
	if e, ok := rc.cache[key]; ok && e.n >= len(buf) && e.reg.Valid() {
		rc.RegHits++
		return e.reg
	} else if ok {
		nic.Deregister(p, e.reg)
		delete(rc.cache, key)
		for i, k := range rc.order {
			if k == key {
				rc.order = append(rc.order[:i], rc.order[i+1:]...)
				break
			}
		}
	}
	rc.RegMisses++
	if len(rc.order) >= rc.cacheCap {
		victim := rc.order[0]
		rc.order = rc.order[1:]
		if e := rc.cache[victim]; e != nil {
			nic.Deregister(p, e.reg)
		}
		delete(rc.cache, victim)
	}
	reg := nic.Register(p, buf)
	rc.cache[key] = &regEntry{reg: reg, n: len(buf)}
	rc.order = append(rc.order, key)
	return reg
}

// release returns a registration obtained from region; with the cache on it
// stays pinned for reuse.
func (rc *regCache) release(p *sim.Proc, reg *via.Region) {
	if !rc.RegCache {
		rc.nic.Deregister(p, reg)
	}
}

// dafsOp adapts a dafs.IO (plus optional registration release).
type dafsOp struct {
	io  *dafs.IO
	rc  *regCache
	reg *via.Region
}

// Wait implements AsyncOp.
func (o *dafsOp) Wait(p *sim.Proc) (int, error) {
	n, err := o.io.Wait(p)
	if o.reg != nil {
		o.rc.release(p, o.reg)
	}
	return n, mapDafsErr(err)
}
