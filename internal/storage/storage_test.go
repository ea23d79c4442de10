package storage

import (
	"bytes"
	"math/bits"
	"testing"
	"testing/quick"

	"dafsio/internal/sim"
)

func TestCreateLookupRemove(t *testing.T) {
	s := NewStore()
	f, err := s.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("a"); err != ErrExists {
		t.Fatalf("duplicate create: %v", err)
	}
	got, err := s.Lookup("a")
	if err != nil || got != f {
		t.Fatalf("lookup: %v %v", got, err)
	}
	if _, err := s.Lookup("b"); err != ErrNotFound {
		t.Fatalf("missing lookup: %v", err)
	}
	byID, err := s.Get(f.ID())
	if err != nil || byID != f {
		t.Fatalf("get by id: %v %v", byID, err)
	}
	if err := s.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(f.ID()); err != ErrBadHandle {
		t.Fatalf("stale handle: %v", err)
	}
	if err := s.Remove("a"); err != ErrNotFound {
		t.Fatalf("double remove: %v", err)
	}
}

func TestCreateEmptyNameFails(t *testing.T) {
	s := NewStore()
	if _, err := s.Create(""); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestRename(t *testing.T) {
	s := NewStore()
	f, _ := s.Create("old")
	s.Create("taken")
	if err := s.Rename("old", "taken"); err != ErrExists {
		t.Fatalf("rename onto existing: %v", err)
	}
	if err := s.Rename("missing", "x"); err != ErrNotFound {
		t.Fatalf("rename missing: %v", err)
	}
	if err := s.Rename("old", "new"); err != nil {
		t.Fatal(err)
	}
	if f.Name() != "new" {
		t.Fatalf("name = %q", f.Name())
	}
	if _, err := s.Lookup("old"); err != ErrNotFound {
		t.Fatal("old name still resolves")
	}
	if got, _ := s.Lookup("new"); got != f {
		t.Fatal("new name does not resolve")
	}
}

func TestListSorted(t *testing.T) {
	s := NewStore()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		s.Create(n)
	}
	got := s.List()
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("List() = %v", got)
		}
	}
	if s.Len() != 3 {
		t.Fatalf("Len() = %d", s.Len())
	}
}

func TestReadWriteAt(t *testing.T) {
	s := NewStore()
	f, _ := s.Create("f")
	if n := f.WriteAt([]byte("hello"), 3); n != 5 {
		t.Fatalf("WriteAt = %d", n)
	}
	if f.Size() != 8 {
		t.Fatalf("size = %d", f.Size())
	}
	buf := make([]byte, 8)
	if n := f.ReadAt(buf, 0); n != 8 {
		t.Fatalf("ReadAt = %d", n)
	}
	if !bytes.Equal(buf, []byte{0, 0, 0, 'h', 'e', 'l', 'l', 'o'}) {
		t.Fatalf("content %q", buf)
	}
	// Read past EOF.
	if n := f.ReadAt(buf, 100); n != 0 {
		t.Fatalf("past-EOF read = %d", n)
	}
	// Short read at tail.
	if n := f.ReadAt(buf, 6); n != 2 {
		t.Fatalf("tail read = %d", n)
	}
	// Negative offsets are rejected.
	if n := f.WriteAt([]byte("x"), -1); n != 0 {
		t.Fatalf("negative write = %d", n)
	}
	if n := f.ReadAt(buf, -1); n != 0 {
		t.Fatalf("negative read = %d", n)
	}
}

func TestTruncate(t *testing.T) {
	s := NewStore()
	f, _ := s.Create("f")
	f.WriteAt([]byte("abcdef"), 0)
	f.Truncate(3)
	if f.Size() != 3 {
		t.Fatalf("size = %d", f.Size())
	}
	f.Truncate(6)
	buf := make([]byte, 6)
	f.ReadAt(buf, 0)
	if !bytes.Equal(buf, []byte{'a', 'b', 'c', 0, 0, 0}) {
		t.Fatalf("content %q", buf)
	}
	f.Truncate(-5)
	if f.Size() != 0 {
		t.Fatalf("size after negative truncate = %d", f.Size())
	}
}

// Property: WriteAt then ReadAt round-trips arbitrary data at arbitrary
// offsets.
func TestWriteReadRoundTripProperty(t *testing.T) {
	prop := func(data []byte, off uint16) bool {
		s := NewStore()
		f, _ := s.Create("f")
		f.WriteAt(data, int64(off))
		got := make([]byte, len(data))
		n := f.ReadAt(got, int64(off))
		return n == len(data) && bytes.Equal(got, data)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// The file size is always the max end-offset ever written.
func TestSizeProperty(t *testing.T) {
	s := NewStore()
	f, _ := s.Create("f")
	maxEnd := int64(0)
	offs := []int64{0, 100, 7, 4096, 50}
	lens := []int{10, 1, 0, 300, 25}
	for i := range offs {
		f.WriteAt(make([]byte, lens[i]), offs[i])
		if end := offs[i] + int64(lens[i]); end > maxEnd && lens[i] > 0 {
			maxEnd = end
		}
	}
	if f.Size() != maxEnd {
		t.Fatalf("size %d, want %d", f.Size(), maxEnd)
	}
}

func TestSliceZeroCopy(t *testing.T) {
	s := NewStore()
	f, _ := s.Create("f")
	f.WriteAt([]byte("abcdef"), 0)
	sl := f.Slice(2, 3)
	if string(sl) != "cde" {
		t.Fatalf("slice %q", sl)
	}
	sl[0] = 'X' // writes through to the file (buffer-cache semantics)
	buf := make([]byte, 6)
	f.ReadAt(buf, 0)
	if string(buf) != "abXdef" {
		t.Fatalf("after slice write: %q", buf)
	}
}

func TestDiskTiming(t *testing.T) {
	k := sim.NewKernel()
	d := NewDisk(k, "d", 5*sim.Millisecond, 1e6) // 1 MB/s for round numbers
	var done sim.Time
	k.Spawn("io", func(p *sim.Proc) {
		d.Access(p, 1e6) // 5ms seek + 1s transfer
		done = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := 5*sim.Millisecond + sim.Second
	if done != want {
		t.Fatalf("disk access took %v, want %v", done, want)
	}
	if d.BusyTime() != want {
		t.Fatalf("busy %v", d.BusyTime())
	}
}

func TestDiskSerializesRequests(t *testing.T) {
	k := sim.NewKernel()
	d := NewDisk(k, "d", sim.Millisecond, 1e9)
	var last sim.Time
	for i := 0; i < 3; i++ {
		k.Spawn("io", func(p *sim.Proc) {
			d.Access(p, 1000)
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if last < 3*sim.Millisecond {
		t.Fatalf("3 accesses finished at %v; disk arm not serialized", last)
	}
}

func TestDiskSequentialSkipsSeek(t *testing.T) {
	k := sim.NewKernel()
	d := NewDisk(k, "d", 5*sim.Millisecond, 1e6)
	var done sim.Time
	k.Spawn("io", func(p *sim.Proc) {
		d.AccessAt(p, 0, 1000)    // seek + 1ms
		d.AccessAt(p, 1000, 1000) // sequential: 1ms only
		d.AccessAt(p, 5000, 1000) // seek + 1ms
		done = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := 2*(5*sim.Millisecond) + 3*sim.Millisecond
	if done != want {
		t.Fatalf("sequential disk pattern took %v, want %v", done, want)
	}
}

func TestDiskAccessResetsPosition(t *testing.T) {
	k := sim.NewKernel()
	d := NewDisk(k, "d", sim.Millisecond, 1e9)
	var done sim.Time
	k.Spawn("io", func(p *sim.Proc) {
		d.AccessAt(p, 0, 1000)
		d.Access(p, 0)         // position unknown afterwards
		d.AccessAt(p, 1000, 0) // would have been sequential, now seeks
		done = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if done < 3*sim.Millisecond {
		t.Fatalf("position not invalidated: %v", done)
	}
}

// A file built by sequential appends, or by writers interleaving small
// pieces with the last one running ahead of EOF, reallocates at most
// ⌈log₂ n⌉+1 times over n writes past EOF, so building it costs linear
// copying.
func TestDenseGrowthIsGeometric(t *testing.T) {
	for _, tc := range []struct {
		name string
		seg  int
		// order lists, per round, which of len(order) interleaved
		// segments is written when; the first one extends the file.
		order []int
	}{
		{"appends", 64 << 10, []int{0}},
		{"strided, last writer ahead", 128, []int{3, 0, 1, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const rounds = 100
			s := NewStore()
			f, _ := s.Create("f")
			stride := tc.seg * len(tc.order)
			reallocs, lastCap := 0, cap(f.data)
			for r := 0; r < rounds; r++ {
				for _, w := range tc.order {
					off := r*stride + w*tc.seg
					f.WriteAt(bytes.Repeat([]byte{byte(w + 1)}, tc.seg), int64(off))
					if c := cap(f.data); c != lastCap {
						reallocs++
						lastCap = c
					}
				}
			}
			if limit := bits.Len(uint(rounds-1)) + 1; reallocs > limit { // ⌈log₂ n⌉+1
				t.Fatalf("%d rounds reallocated %d times, want <= %d", rounds, reallocs, limit)
			}
			got := make([]byte, rounds*stride)
			if n := f.ReadAt(got, 0); n != len(got) {
				t.Fatalf("ReadAt = %d, want %d", n, len(got))
			}
			for i, b := range got {
				if want := byte(i%stride/tc.seg + 1); b != want {
					t.Fatalf("byte %d = %d, want %d", i, b, want)
				}
			}
		})
	}
}

// A write that leaves a hole of sparseHole or more past EOF grows to the
// exact size: sparse objects carry no slack capacity.
func TestHoleWriteGrowsExactly(t *testing.T) {
	s := NewStore()
	f, _ := s.Create("f")
	f.WriteAt([]byte("x"), 1<<20)
	if len(f.data) != cap(f.data) {
		t.Fatalf("hole write into empty file: len %d cap %d", len(f.data), cap(f.data))
	}
	for i := 0; i < 3; i++ {
		f.WriteAt(make([]byte, 4096), f.Size()) // appends leave slack
	}
	f.WriteAt([]byte("y"), int64(cap(f.data))+1000)
	if len(f.data) != cap(f.data) {
		t.Fatalf("hole write past capacity: len %d cap %d", len(f.data), cap(f.data))
	}
}

// Capacity left behind by a shrinking Truncate holds stale bytes; neither
// an append nor a hole write over it may expose them.
func TestShrinkThenRegrowReadsZeros(t *testing.T) {
	s := NewStore()
	f, _ := s.Create("f")
	old := bytes.Repeat([]byte{0xAA}, 1000)
	f.WriteAt(old, 0)
	f.Truncate(100)
	f.WriteAt([]byte("abc"), 100)     // append into stale capacity
	f.WriteAt([]byte("xyz"), 500)     // hole write into stale capacity
	f.WriteAt([]byte("end"), 1<<20-3) // hole write past capacity
	want := make([]byte, 1<<20)
	copy(want, old[:100])
	copy(want[100:], "abc")
	copy(want[500:], "xyz")
	copy(want[1<<20-3:], "end")
	got := make([]byte, len(want))
	if n := f.ReadAt(got, 0); n != len(want) {
		t.Fatalf("ReadAt = %d, want %d", n, len(want))
	}
	if !bytes.Equal(got, want) {
		i := 0
		for got[i] == want[i] {
			i++
		}
		t.Fatalf("first difference at %d: got %#x want %#x", i, got[i], want[i])
	}
}

func BenchmarkFileAppend(b *testing.B) {
	chunk := make([]byte, 64<<10)
	const perFile = 256 // 16 MB files
	b.SetBytes(int64(len(chunk)))
	var f *File
	for i := 0; i < b.N; i++ {
		if i%perFile == 0 {
			f = &File{}
		}
		f.WriteAt(chunk, f.Size())
	}
}

func BenchmarkFileReadAt(b *testing.B) {
	const size = 16 << 20
	f := &File{}
	f.WriteAt(make([]byte, size), 0)
	buf := make([]byte, 64<<10)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		readSink = f.ReadAt(buf, int64(i*len(buf))%size)
	}
}

var readSink int
