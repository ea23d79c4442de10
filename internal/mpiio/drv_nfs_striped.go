package mpiio

import (
	"errors"
	"fmt"

	"dafsio/internal/fabric"
	"dafsio/internal/layout"
	"dafsio/internal/nfs"
	"dafsio/internal/sim"
)

// StripedNFSDriver binds MPI-IO to a pool of NFS mounts — one per server
// — with the same layout.Striping fan-out the striped DAFS driver uses.
// Transfers are chunked to each mount's rsize/wsize and pipelined by the
// NFS client; every byte crosses the kernel stack on both ends. At width 1
// (NewNFSDriver) it is the paper's single-mount baseline. Wider, it splits
// the layout effect from the transport effect: striped NFS gets the
// aggregate disk and link bandwidth of N servers, but every fragment still
// pays the kernel-stack and copy costs of the NFS path, while striped DAFS
// pays the user-level VIA costs. Comparing the two at equal width isolates
// what striping buys versus what the transport buys.
// No replication: rank 0 objects only, like NFS deployments of the era.
type StripedNFSDriver struct {
	clients  []*nfs.Client
	striping layout.Striping
}

// NewNFSDriver binds MPI-IO to one NFS mount — the paper's baseline
// transport — as the width-1 striping.
func NewNFSDriver(client *nfs.Client) *StripedNFSDriver {
	return NewStripedNFSDriver([]*nfs.Client{client}, layout.Striping{Width: 1})
}

// NewStripedNFSDriver wraps a mount pool, one mount per server in layout
// order. The policy must be unreplicated — NFS has no write-all fan-out.
func NewStripedNFSDriver(clients []*nfs.Client, st layout.Striping) *StripedNFSDriver {
	if err := st.Validate(); err != nil {
		panic(err)
	}
	if st.R() != 1 {
		panic("mpiio: striped NFS does not replicate")
	}
	if len(clients) != st.Width {
		panic(fmt.Sprintf("mpiio: %d mounts for stripe width %d", len(clients), st.Width))
	}
	return &StripedNFSDriver{clients: clients, striping: st}
}

// Striping returns the placement policy.
func (d *StripedNFSDriver) Striping() layout.Striping { return d.striping }

// Name implements Driver.
func (d *StripedNFSDriver) Name() string {
	if d.striping.Width == 1 {
		return "nfs"
	}
	return fmt.Sprintf("nfs-striped/%d", d.striping.Width)
}

// Node implements Driver.
func (d *StripedNFSDriver) Node() *fabric.Node { return d.clients[0].Node() }

// Open implements Driver: the stripe object is looked up (or created) on
// every mount, one server at a time — NFS lookups are synchronous RPCs.
func (d *StripedNFSDriver) Open(p *sim.Proc, name string, mode int) (Handle, error) {
	if err := checkAccessMode(mode); err != nil {
		return nil, err
	}
	W := d.striping.Width
	fhs := make([]nfs.FH, W)
	found := 0
	var missing []int
	for t := 0; t < W; t++ {
		fh, _, err := d.clients[t].Lookup(p, name)
		switch {
		case err == nil:
			fhs[t] = fh
			found++
		case errors.Is(err, nfs.ErrNoEnt) && mode&ModeCreate != 0:
			missing = append(missing, t)
		default:
			return nil, mapNfsErr(err)
		}
	}
	if mode&ModeExcl != 0 && found > 0 {
		return nil, ErrExist
	}
	for _, t := range missing {
		fh, _, err := d.clients[t].Create(p, name)
		if err != nil {
			return nil, mapNfsErr(err)
		}
		fhs[t] = fh
	}
	return &stripedNFSHandle{drv: d, fhs: fhs, name: name, mode: mode}, nil
}

// Delete implements Driver: the stripe object is removed on every mount.
func (d *StripedNFSDriver) Delete(p *sim.Proc, name string) error {
	missing := 0
	for t := range d.clients {
		err := d.clients[t].Remove(p, name)
		switch {
		case err == nil:
		case errors.Is(err, nfs.ErrNoEnt):
			missing++
		default:
			return mapNfsErr(err)
		}
	}
	if missing == len(d.clients) {
		return ErrNoEnt
	}
	return nil
}

func mapNfsErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, nfs.ErrNoEnt):
		return ErrNoEnt
	case errors.Is(err, nfs.ErrExist):
		return ErrExist
	default:
		return fmt.Errorf("mpiio: nfs: %w", err)
	}
}

type stripedNFSHandle struct {
	drv    *StripedNFSDriver
	fhs    []nfs.FH
	name   string
	mode   int
	closed bool
}

// startFrags issues every fragment of a contiguous request on its mount,
// all in flight at once — the per-mount NFS clients chunk and pipeline
// each fragment to rsize/wsize themselves.
func (h *stripedNFSHandle) startFrags(p *sim.Proc, off int64, buf []byte, write bool) (AsyncOp, error) {
	d := h.drv
	frags := d.striping.Map(off, int64(len(buf)))
	ops := make([]*nfs.IO, len(frags))
	for i, f := range frags {
		c := d.clients[f.Server]
		fbuf := buf[f.BufOff : f.BufOff+f.Len]
		var io *nfs.IO
		var err error
		if write {
			io, err = c.StartWrite(p, h.fhs[f.Server], f.Off, fbuf)
		} else {
			io, err = c.StartRead(p, h.fhs[f.Server], f.Off, fbuf)
		}
		if err != nil {
			for _, prev := range ops[:i] {
				prev.Wait(p)
			}
			return nil, mapNfsErr(err)
		}
		ops[i] = io
	}
	return &stripedNFSOp{frags: frags, ops: ops, write: write}, nil
}

// stripedNFSOp aggregates per-fragment completions: writes sum their
// counts, reads report the contiguous prefix (same EOF semantics as the
// striped DAFS driver).
type stripedNFSOp struct {
	frags []layout.Fragment
	ops   []*nfs.IO
	write bool
}

// Wait implements AsyncOp.
func (o *stripedNFSOp) Wait(p *sim.Proc) (int, error) {
	counts := make([]int, len(o.ops))
	var firstErr error
	for i, io := range o.ops {
		n, err := io.Wait(p)
		if err != nil && firstErr == nil {
			firstErr = mapNfsErr(err)
		}
		counts[i] = n
	}
	if firstErr != nil {
		return 0, firstErr
	}
	if o.write {
		total := 0
		for _, n := range counts {
			total += n
		}
		return total, nil
	}
	return layout.ContiguousCount(o.frags, counts), nil
}

// StartRead implements Handle.
func (h *stripedNFSHandle) StartRead(p *sim.Proc, off int64, buf []byte) (AsyncOp, error) {
	if err := checkIO(h.closed, h.mode, off, false); err != nil {
		return nil, err
	}
	if len(buf) == 0 {
		return doneOp{}, nil
	}
	return h.startFrags(p, off, buf, false)
}

// StartWrite implements Handle.
func (h *stripedNFSHandle) StartWrite(p *sim.Proc, off int64, buf []byte) (AsyncOp, error) {
	if err := checkIO(h.closed, h.mode, off, true); err != nil {
		return nil, err
	}
	if len(buf) == 0 {
		return doneOp{}, nil
	}
	return h.startFrags(p, off, buf, true)
}

// ReadContig implements Handle.
func (h *stripedNFSHandle) ReadContig(p *sim.Proc, off int64, buf []byte) (int, error) {
	op, err := h.StartRead(p, off, buf)
	if err != nil {
		return 0, err
	}
	return op.Wait(p)
}

// WriteContig implements Handle.
func (h *stripedNFSHandle) WriteContig(p *sim.Proc, off int64, buf []byte) (int, error) {
	op, err := h.StartWrite(p, off, buf)
	if err != nil {
		return 0, err
	}
	return op.Wait(p)
}

// Size implements Handle: per-object sizes through the layout's inverse.
func (h *stripedNFSHandle) Size(p *sim.Proc) (int64, error) {
	if h.closed {
		return 0, ErrClosed
	}
	d := h.drv
	sizes := make([]int64, d.striping.Width)
	for t := range d.clients {
		attr, err := d.clients[t].Getattr(p, h.fhs[t])
		if err != nil {
			return 0, mapNfsErr(err)
		}
		sizes[t] = attr.Size
	}
	return d.striping.LogicalSize(sizes), nil
}

// Resize implements Handle.
func (h *stripedNFSHandle) Resize(p *sim.Proc, n int64) error {
	if h.closed {
		return ErrClosed
	}
	if n < 0 {
		return ErrNegative
	}
	sizes := h.drv.striping.ObjectSizes(n)
	for t := range h.drv.clients {
		if err := h.drv.clients[t].Setattr(p, h.fhs[t], sizes[t]); err != nil {
			return mapNfsErr(err)
		}
	}
	return nil
}

// Sync implements Handle.
func (h *stripedNFSHandle) Sync(p *sim.Proc) error {
	if h.closed {
		return ErrClosed
	}
	for t := range h.drv.clients {
		if err := h.drv.clients[t].Commit(p, h.fhs[t]); err != nil {
			return mapNfsErr(err)
		}
	}
	return nil
}

// Close implements Handle.
func (h *stripedNFSHandle) Close(p *sim.Proc) error {
	if h.closed {
		return nil
	}
	h.closed = true
	if h.mode&ModeDeleteOnClose != 0 {
		return h.drv.Delete(p, h.name)
	}
	return nil
}
