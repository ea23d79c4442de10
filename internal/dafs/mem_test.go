package dafs

import (
	"runtime"
	"testing"

	"dafsio/internal/sim"
)

// liveHeap returns the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// Each side of a session registers a request and a response ring of
// Credits slots, ~70 KB apiece at the defaults. The rings lend their host
// bytes per message, so an idle session must cost the host far less than
// its registered windows: the wide experiments dial thousands of them.
func TestIdleSessionHeapIndependentOfRings(t *testing.T) {
	const clients, perClient = 8, 32
	r := newRig(clients, nil)
	var sessions []*Client
	before := liveHeap()
	r.k.Spawn("dial", func(p *sim.Proc) {
		for i := 0; i < clients*perClient; i++ {
			c, err := Dial(p, r.cNICs[i%clients], r.srv, nil)
			if err != nil {
				t.Error(err)
				return
			}
			sessions = append(sessions, c)
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	per := (int64(liveHeap()) - int64(before)) / int64(len(sessions))
	runtime.KeepAlive(r)
	t.Logf("%d sessions, %d B of live heap each", len(sessions), per)
	if per > 32<<10 {
		t.Errorf("an idle session holds %d B of live heap, want under 32 KiB", per)
	}
}

// BenchmarkDial measures one session establishment end to end: both
// sides' rings and pre-posted receives plus the CONNECT round trip.
func BenchmarkDial(b *testing.B) {
	const batch = 256 // sessions per kernel, so a long run stays small
	b.ReportAllocs()
	for done := 0; done < b.N; {
		b.StopTimer()
		r := newRig(1, nil)
		n := min(b.N-done, batch)
		b.StartTimer()
		r.k.Spawn("dial", func(p *sim.Proc) {
			for range n {
				if _, err := Dial(p, r.cNICs[0], r.srv, nil); err != nil {
					b.Error(err)
					return
				}
			}
		})
		if err := r.k.Run(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		r.k.Shutdown()
		b.StartTimer()
		done += n
	}
}
