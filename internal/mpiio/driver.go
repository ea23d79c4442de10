package mpiio

import (
	"errors"

	"dafsio/internal/fabric"
	"dafsio/internal/sim"
)

// Open mode flags (MPI_MODE_*).
const (
	ModeRdOnly = 1 << iota
	ModeWrOnly
	ModeRdWr
	ModeCreate
	ModeExcl
	ModeDeleteOnClose
)

// Package errors.
var (
	ErrBadMode   = errors.New("mpiio: invalid open mode")
	ErrReadOnly  = errors.New("mpiio: file opened read-only")
	ErrWriteOnly = errors.New("mpiio: file opened write-only")
	ErrClosed    = errors.New("mpiio: file closed")
	ErrNegative  = errors.New("mpiio: negative offset or count")
	ErrNoEnt     = errors.New("mpiio: no such file")
	ErrExist     = errors.New("mpiio: file exists")
)

func checkAccessMode(mode int) error {
	n := 0
	for _, m := range []int{ModeRdOnly, ModeWrOnly, ModeRdWr} {
		if mode&m != 0 {
			n++
		}
	}
	if n != 1 {
		return ErrBadMode
	}
	if mode&ModeRdOnly != 0 && mode&(ModeCreate|ModeExcl) != 0 {
		return ErrBadMode
	}
	return nil
}

// checkIO is every handle's access check for an I/O at off: the handle
// must be open, the offset non-negative, and the direction allowed by the
// open mode.
func checkIO(closed bool, mode int, off int64, write bool) error {
	if closed {
		return ErrClosed
	}
	if off < 0 {
		return ErrNegative
	}
	if write && mode&ModeRdOnly != 0 {
		return ErrReadOnly
	}
	if !write && mode&ModeWrOnly != 0 {
		return ErrWriteOnly
	}
	return nil
}

// Driver is the ADIO-style transport abstraction: MPI-IO needs only
// contiguous reads and writes plus a handful of control operations; all
// noncontiguous and collective cleverness lives above this line, exactly as
// in ROMIO.
type Driver interface {
	// Name identifies the driver ("dafs", "nfs", "mem").
	Name() string
	// Node is the host the driver runs on; the MPI-IO layer charges its
	// pack/unpack/sieve copies to this CPU.
	Node() *fabric.Node
	// Open opens (optionally creating) a file.
	Open(p *sim.Proc, name string, mode int) (Handle, error)
	// Delete removes a file by name.
	Delete(p *sim.Proc, name string) error
}

// Handle is one open file at the driver level.
type Handle interface {
	// ReadContig reads len(buf) bytes at off (short count at EOF).
	ReadContig(p *sim.Proc, off int64, buf []byte) (int, error)
	// WriteContig writes buf at off, extending the file as needed.
	WriteContig(p *sim.Proc, off int64, buf []byte) (int, error)
	// StartRead begins a nonblocking contiguous read.
	StartRead(p *sim.Proc, off int64, buf []byte) (AsyncOp, error)
	// StartWrite begins a nonblocking contiguous write.
	StartWrite(p *sim.Proc, off int64, buf []byte) (AsyncOp, error)
	// Size returns the current file size.
	Size(p *sim.Proc) (int64, error)
	// Resize truncates or extends the file.
	Resize(p *sim.Proc, n int64) error
	// Sync commits written data.
	Sync(p *sim.Proc) error
	// Close releases the handle.
	Close(p *sim.Proc) error
}

// AsyncOp is an in-flight driver operation.
type AsyncOp interface {
	Wait(p *sim.Proc) (int, error)
}

// ListHandle is an optional Handle extension for transports whose protocol
// supports batched noncontiguous access in a single request (DAFS batch
// I/O: one segment list, one RDMA). The MPI-IO layer prefers it over
// per-segment operations unless Hints.NoBatch is set. segs map to
// consecutive bytes of buf.
type ListHandle interface {
	StartReadList(p *sim.Proc, segs []Segment, buf []byte) (AsyncOp, error)
	StartWriteList(p *sim.Proc, segs []Segment, buf []byte) (AsyncOp, error)
}

// multiOp aggregates several AsyncOps into one.
type multiOp []AsyncOp

// Wait implements AsyncOp.
func (m multiOp) Wait(p *sim.Proc) (int, error) {
	total := 0
	var firstErr error
	// Always drain every op: later ops may hold cleanup (registration
	// release) that must run even when an earlier chunk failed.
	for _, op := range m {
		n, err := op.Wait(p)
		if firstErr == nil {
			total += n
			firstErr = err
		}
	}
	return total, firstErr
}

// doneOp is an AsyncOp that completed immediately (used by drivers whose
// async path degenerates, e.g. zero-length transfers).
type doneOp struct {
	n   int
	err error
}

// Wait implements AsyncOp.
func (d doneOp) Wait(*sim.Proc) (int, error) { return d.n, d.err }
