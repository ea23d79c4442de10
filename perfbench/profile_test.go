package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestBucketOfInnermostDafsioFrame(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		// Runtime work is charged to its nearest dafsio caller.
		{[]string{"runtime.memmove", "dafsio/internal/storage.(*File).ensure", "dafsio/internal/storage.(*File).WriteAt", "dafsio/internal/dafs.(*Server).exec", "dafsio/internal/sim.(*Proc).run"}, "storage"},
		{[]string{"runtime.gopark", "runtime.chanrecv1", "dafsio/internal/sim.(*Proc).park", "dafsio/internal/via.(*NIC).sendLoop"}, "sim"},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "dafsio/internal/mpiio.(*File).WriteAtAll.func1", "main.(*rep).client"}, "mpiio"},
		// Subpackages and packages without a bucket of their own.
		{[]string{"dafsio/internal/analysis/cfg.Build"}, "other"},
		{[]string{"dafsio/internal/model.CLAN1998"}, "other"},
		// Generic instantiations keep their package.
		{[]string{"dafsio/internal/sim.(*Future[go.shape.int]).Get"}, "sim"},
		// The benchmark's own frames stop the walk before the sim runner.
		{[]string{"bytes.Equal", "main.(*rep).readBack", "main.(*rep).client", "dafsio/internal/sim.(*Kernel).Spawn.func1"}, "other"},
		// Background GC has no dafsio frame.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime._GC"}, "gc"},
		{[]string{"runtime.futex", "runtime.schedule"}, "other"},
		{nil, "other"},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// pb is a minimal protobuf encoder for building test profiles.
type pb []byte

func (b pb) varint(field int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(field)<<3)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(field int, v []byte) pb {
	b = binary.AppendUvarint(b, uint64(field)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

func TestFoldProfileSharesByPackage(t *testing.T) {
	strs := []string{"", "runtime.memmove", "dafsio/internal/storage.(*File).WriteAt", "dafsio/internal/sim.(*Proc).park", "runtime.gcBgMarkWorker"}
	var prof pb
	for _, s := range strs {
		prof = prof.bytes(6, []byte(s))
	}
	for id := 1; id < len(strs); id++ {
		prof = prof.bytes(5, pb{}.varint(1, uint64(id)).varint(2, uint64(id)))
	}
	// Location 1 inlines memmove into storage.WriteAt; 2 is sim; 3 is GC.
	line := func(fn uint64) []byte { return pb{}.varint(1, fn) }
	prof = prof.bytes(4, pb{}.varint(1, 1).bytes(4, line(1)).bytes(4, line(2)))
	prof = prof.bytes(4, pb{}.varint(1, 2).bytes(4, line(3)))
	prof = prof.bytes(4, pb{}.varint(1, 3).bytes(4, line(4)))
	packed := func(v ...uint64) []byte {
		var b []byte
		for _, u := range v {
			b = binary.AppendUvarint(b, u)
		}
		return b
	}
	// Samples: [count, cpu ns]; the fold uses the last value.
	prof = prof.bytes(2, pb{}.bytes(1, packed(1, 2)).bytes(2, packed(6, 60)))
	prof = prof.bytes(2, pb{}.bytes(1, packed(2)).bytes(2, packed(3, 30)))
	prof = prof.bytes(2, pb{}.varint(1, 3).varint(2, 1).varint(2, 10)) // unpacked form
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof)
	zw.Close()

	ns := map[string]float64{}
	if err := foldProfile(ns, gz.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := foldProfile(ns, gz.Bytes()); err != nil { // profiles accumulate
		t.Fatal(err)
	}
	got := shares(ns)
	want := map[string]float64{"storage": 0.6, "sim": 0.3, "gc": 0.1}
	for _, b := range cpuBuckets {
		if math.Abs(got[b]-want[b]) > 1e-12 {
			t.Errorf("cpu.%s = %g, want %g", b, got[b], want[b])
		}
	}
}

func TestFoldProfileRejectsTruncated(t *testing.T) {
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(pb{}.bytes(2, []byte{0x0a, 0x05, 0x01})) // sample claims 5 bytes, has 1
	zw.Close()
	if err := foldProfile(map[string]float64{}, gz.Bytes()); err == nil {
		t.Error("truncated profile folded without error")
	}
}

func TestFoldRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	deadline := time.Now().Add(50 * time.Millisecond)
	for x := 0; time.Now().Before(deadline); x++ {
		sink = x
	}
	pprof.StopCPUProfile()
	ns := map[string]float64{}
	if err := foldProfile(ns, buf.Bytes()); err != nil {
		t.Fatalf("runtime/pprof output did not fold: %v", err)
	}
	var sum float64
	for _, v := range shares(ns) {
		sum += v
	}
	if sum != 0 && math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %g", sum)
	}
}
