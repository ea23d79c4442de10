package mpiio

import (
	"bytes"
	"testing"

	"dafsio/internal/cluster"
	"dafsio/internal/dafs"
	"dafsio/internal/layout"
	"dafsio/internal/sim"
)

// stripedRig builds an N-server cluster, opens a striped file from client
// 0, and runs fn.
func stripedRig(t *testing.T, servers int, stripe int64, fn func(p *sim.Proc, f *File, c *cluster.Cluster)) {
	t.Helper()
	c := cluster.New(cluster.Config{Clients: 1, Servers: servers, DAFS: true})
	c.K.Spawn("app", func(p *sim.Proc) {
		pool, err := c.DialDAFSAll(p, 0, nil)
		if err != nil {
			t.Error(err)
			return
		}
		drv := NewStripedDAFSDriver(pool, layout.Striping{StripeSize: stripe, Width: servers})
		f, err := Open(p, nil, drv, "s", ModeRdWr|ModeCreate, nil)
		if err != nil {
			t.Error(err)
			return
		}
		fn(p, f, c)
		f.Close(p)
	})
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + 3)
	}
	return b
}

// TestStripedRoundTrip writes through the striped driver, reads back, and
// checks both the logical bytes and the physical per-server placement.
func TestStripedRoundTrip(t *testing.T) {
	const (
		stripe  = 4 << 10
		servers = 3
		total   = 10*stripe + 513 // unaligned tail
	)
	data := pattern(total)
	stripedRig(t, servers, stripe, func(p *sim.Proc, f *File, c *cluster.Cluster) {
		if n, err := f.WriteAt(p, 0, data); err != nil || n != total {
			t.Fatalf("WriteAt = %d, %v", n, err)
		}
		got := make([]byte, total)
		if n, err := f.ReadAt(p, 0, got); err != nil || n != total {
			t.Fatalf("ReadAt = %d, %v", n, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("read-back differs from written data")
		}
		// Unaligned interior read crossing several stripes and servers.
		sub := make([]byte, 2*stripe+100)
		off := int64(stripe/2 + 1)
		if n, err := f.ReadAt(p, off, sub); err != nil || n != len(sub) {
			t.Fatalf("interior ReadAt = %d, %v", n, err)
		}
		if !bytes.Equal(sub, data[off:off+int64(len(sub))]) {
			t.Fatal("interior read differs")
		}
		if sz, err := f.GetSize(p); err != nil || sz != total {
			t.Fatalf("Size = %d, %v (want %d)", sz, err, total)
		}
		// Physical check: each server's stripe object holds exactly its
		// layout share, with the right bytes at the right object offsets.
		st := layout.Striping{StripeSize: stripe, Width: servers}
		for i, store := range c.Stores {
			obj, err := store.Lookup("s")
			if err != nil {
				t.Fatalf("server %d: %v", i, err)
			}
			if obj.Size() != st.ObjectSizes(total)[i] {
				t.Errorf("server %d object size %d, want %d", i, obj.Size(), st.ObjectSizes(total)[i])
			}
		}
		for _, frag := range st.Map(0, total) {
			obj, _ := c.Stores[frag.Server].Lookup("s")
			got := make([]byte, frag.Len)
			obj.ReadAt(got, frag.Off)
			if !bytes.Equal(got, data[frag.BufOff:frag.BufOff+frag.Len]) {
				t.Fatalf("fragment %+v holds wrong bytes", frag)
			}
		}
	})
}

// TestStripedShortRead: EOF mid-stripe must yield the contiguous-prefix
// count, not the sum of whatever fragments returned.
func TestStripedShortRead(t *testing.T) {
	const (
		stripe  = 4 << 10
		servers = 2
		size    = 2*stripe + 777 // ends 777 bytes into stripe 2 (server 0)
	)
	stripedRig(t, servers, stripe, func(p *sim.Proc, f *File, c *cluster.Cluster) {
		if _, err := f.WriteAt(p, 0, pattern(size)); err != nil {
			t.Fatal(err)
		}
		// Read 2 stripes starting inside stripe 1: only stripe 1's tail
		// plus 777 bytes of stripe 2 exist.
		off := int64(stripe + 100)
		buf := make([]byte, 2*stripe)
		n, err := f.ReadAt(p, off, buf)
		if err != nil {
			t.Fatal(err)
		}
		if want := size - int(off); n != want {
			t.Fatalf("short read = %d, want %d", n, want)
		}
		// Entirely past EOF: zero bytes.
		if n, err := f.ReadAt(p, int64(size+stripe), buf); err != nil || n != 0 {
			t.Fatalf("past-EOF read = %d, %v", n, err)
		}
	})
}

// TestStripedResize exercises truncate/extend through the layout's
// per-server object sizes.
func TestStripedResize(t *testing.T) {
	const (
		stripe  = 1 << 10
		servers = 4
	)
	stripedRig(t, servers, stripe, func(p *sim.Proc, f *File, c *cluster.Cluster) {
		if _, err := f.WriteAt(p, 0, pattern(6*stripe)); err != nil {
			t.Fatal(err)
		}
		for _, n := range []int64{3*stripe + 17, 0, 5 * stripe} {
			if err := f.SetSize(p, n); err != nil {
				t.Fatalf("Resize(%d): %v", n, err)
			}
			if sz, err := f.GetSize(p); err != nil || sz != n {
				t.Fatalf("after Resize(%d): Size = %d, %v", n, sz, err)
			}
		}
	})
}

// width1Work is the width-1 pinning workload: a 300KB write that mixes
// direct fragments with an inline tail, then a small (inline-path) read and
// a large (direct-path) one. It returns the simulated elapsed time and
// checks both reads against the written pattern.
func width1Work(t *testing.T, p *sim.Proc, f *File) sim.Time {
	const total = 300 << 10
	data := pattern(total)
	start := p.Now()
	if _, err := f.WriteAt(p, 0, data); err != nil {
		t.Error(err)
		return 0
	}
	small := make([]byte, 1<<10)
	if _, err := f.ReadAt(p, 512, small); err != nil {
		t.Error(err)
		return 0
	}
	got := make([]byte, total)
	if _, err := f.ReadAt(p, 0, got); err != nil {
		t.Error(err)
		return 0
	}
	elapsed := p.Now() - start
	if !bytes.Equal(small, data[512:512+len(small)]) || !bytes.Equal(got, data) {
		t.Error("width-1 driver read back different bytes")
	}
	return elapsed
}

// TestStripedWidth1Equivalence: with one server the striped driver must be
// operation-for-operation the single-server DAFS driver this repository
// used to carry separately — same data, same counts, and the same
// simulated elapsed time. The elapsed time is pinned to the value that
// separate driver measured on this workload; NewDAFSDriver and an explicit
// width-1 NewStripedDAFSDriver must both reproduce it exactly.
func TestStripedWidth1Equivalence(t *testing.T) {
	const want = sim.Time(7040069)
	for _, striped := range []bool{false, true} {
		c := cluster.New(cluster.Config{Clients: 1, DAFS: true})
		var elapsed sim.Time
		c.K.Spawn("app", func(p *sim.Proc) {
			cl, err := c.DialDAFS(p, 0, nil)
			if err != nil {
				t.Error(err)
				return
			}
			drv := NewDAFSDriver(cl)
			if striped {
				drv = NewStripedDAFSDriver([]*dafs.Client{cl}, layout.Striping{Width: 1})
			}
			f, err := Open(p, nil, drv, "e", ModeRdWr|ModeCreate, nil)
			if err != nil {
				t.Error(err)
				return
			}
			elapsed = width1Work(t, p, f)
			f.Close(p)
		})
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		if elapsed != want {
			t.Errorf("width-1 DAFS driver (striped constructor %v) costs %v, want %v", striped, elapsed, want)
		}
	}
}
