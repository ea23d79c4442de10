package main

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
	"time"
)

func TestSeedFixesInputs(t *testing.T) {
	for _, w := range workloads {
		a, b := newInputs(w, 7), newInputs(w, 7)
		if !bytes.Equal(a.pat, b.pat) || !slices.EqualFunc(a.order, b.order, slices.Equal[[]int]) {
			t.Errorf("%s: same seed gave different inputs", w.name)
		}
		c := newInputs(w, 8)
		if bytes.Equal(a.pat, c.pat) {
			t.Errorf("%s: seeds 7 and 8 gave the same data", w.name)
		}
		if !w.strided && slices.EqualFunc(a.order, c.order, slices.Equal[[]int]) {
			t.Errorf("%s: seeds 7 and 8 gave the same request order", w.name)
		}
	}
}

func TestRequestOrderCoversEveryChunkOnce(t *testing.T) {
	for _, w := range workloads {
		in := newInputs(w, 3)
		covered := make([]int, w.fileBytes()/blockSize)
		for i, calls := range in.order {
			if len(calls) != w.calls() {
				t.Fatalf("%s: client %d has %d calls, want %d", w.name, i, len(calls), w.calls())
			}
			for j, c := range calls {
				if w.write && j > 0 && c != calls[j-1]+1 {
					t.Errorf("%s: writer %d does not walk its region front to back: %v", w.name, i, calls)
					break
				}
				for _, s := range w.segments(i, c) {
					for b := s.Off / blockSize; b < (s.Off+s.Len)/blockSize; b++ {
						covered[b]++
					}
				}
			}
		}
		for b, n := range covered {
			if n != 1 {
				t.Fatalf("%s: block %d written or read %d times per method, want 1", w.name, b, n)
			}
		}
	}
}

func TestFillMatchesPatternAtEveryOffset(t *testing.T) {
	w, _ := lookup("strided-coll")
	in := newInputs(w, 2)
	buf := make([]byte, w.chunk)
	w.fill(in, buf, 3, 5)
	for j, s := range w.segments(3, 5) {
		if !bytes.Equal(buf[int64(j)*blockSize:int64(j+1)*blockSize], in.at(s.Off, s.Len)) {
			t.Fatalf("block %d of the call does not hold the pattern at file offset %d", j, s.Off)
		}
	}
	// The pattern repeats with period patLen and nothing shorter that a
	// request could hide.
	if !bytes.Equal(in.at(patLen+10, 100), in.at(10, 100)) || bytes.Equal(in.at(stripeSize, 100), in.at(0, 100)) {
		t.Error("pattern period is wrong")
	}
}

func TestEveryWorkloadHasAP90(t *testing.T) {
	for _, w := range workloads {
		if q, beyond, ok := tailPercentile(w.timedCalls()); !ok || q < 90 {
			t.Errorf("%s: %d timed calls give p%g with %d beyond", w.name, w.timedCalls(), q, beyond)
		}
	}
}

// TestRepeatsAndTracingLeaveModelUnchanged runs the cheapest workload
// untraced twice and traced once, and compares every modeled number with
// the others and with expected.json.
func TestRepeatsAndTracingLeaveModelUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	w, _ := lookup("strided-coll")
	in := newInputs(w, defaultSeed)
	ph := newPhases(time.Now)
	var mods []modeled
	for _, traced := range []bool{false, false, true} {
		o, err := runRep(w, in, traced, ph)
		if err != nil {
			t.Fatal(err)
		}
		if o.failed != 0 || o.attempted != w.timedCalls()+w.clients*len(w.methods()) {
			t.Fatalf("traced=%v: %d of %d operations failed", traced, o.failed, o.attempted)
		}
		if traced && (o.planes == nil || o.planes.sessions != int64(w.clients*w.servers) || o.planes.clientOps == 0) {
			t.Errorf("traced planes %+v", o.planes)
		}
		mods = append(mods, o.mod)
	}
	if mods[1] != mods[0] || mods[2] != mods[0] {
		t.Errorf("modeled numbers differ: %+v", mods)
	}
	var exp expected
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		t.Fatal(err)
	}
	if want := exp.Workloads[w.name]; mods[0] != want {
		t.Errorf("modeled %+v, expected.json %+v", mods[0], want)
	}
}
