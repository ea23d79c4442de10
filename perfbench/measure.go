package main

import (
	"math"
	"slices"
	"strings"
	"time"

	"dafsio/internal/metrics"
	"dafsio/internal/sim"
	"dafsio/internal/trace"
)

// span is one of the benchmark's own phases, timed on the host clock
// relative to the start of the run. Parent is 0 for a root.
type span struct {
	Name       string
	ID, Parent int
	Start, End time.Duration
}

// phases keeps the benchmark's spans in memory until the run ends.
type phases struct {
	origin time.Time
	now    func() time.Time
	spans  []span
}

func newPhases(now func() time.Time) *phases {
	return &phases{origin: now(), now: now}
}

// begin opens a span and returns its id (never 0).
func (ph *phases) begin(name string, parent int) int {
	t := ph.now().Sub(ph.origin)
	ph.spans = append(ph.spans, span{Name: name, ID: len(ph.spans) + 1, Parent: parent, Start: t, End: t})
	return len(ph.spans)
}

// end closes a span now and returns its duration. Ending a span again
// moves its end, so the last of several finishers sets it.
func (ph *phases) end(id int) time.Duration {
	s := &ph.spans[id-1]
	s.End = ph.now().Sub(ph.origin)
	return s.End - s.Start
}

// tracer replays the spans onto a trace.Tracer, on a kernel whose clock
// reads host nanoseconds since the start of the run, so they export
// through the program's own Chrome writer. They sit on the top layer's
// track: the benchmark calls into the program from above MPI-IO.
func (ph *phases) tracer() (*trace.Tracer, error) {
	k := sim.NewKernel()
	defer k.Shutdown()
	tr := trace.New(k)
	ids := make([]trace.OpID, len(ph.spans)+1)
	for _, s := range ph.spans {
		s := s
		k.At(sim.Time(s.Start), func() {
			ids[s.ID] = tr.BeginAt("perfbench", trace.LayerMPIIO, s.Name, ids[s.Parent], 0, -1, sim.Time(s.Start))
		})
		k.At(sim.Time(s.End), func() { tr.End(ids[s.ID]) })
	}
	return tr, k.Run()
}

// percentile is the nearest-rank percentile of sorted samples: the
// smallest sample with at least q% of the samples at or below it.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)-1]
}

// rank is the 1-based nearest-rank position of percentile q in n samples.
func rank(n int, q float64) int {
	// Multiply before dividing, and forgive rounding below one part in a
	// billion, so that for example p99.9 of 10000 is exactly rank 9990.
	r := int(math.Ceil(q*float64(n)/100 - 1e-9))
	return max(1, min(r, n))
}

// tailPercentiles are the candidates for a reported tail, highest first.
var tailPercentiles = []float64{99.9, 99, 90, 50}

// tailPercentile returns the highest candidate percentile that has at
// least ten samples beyond it in n samples, and how many lie beyond it.
// ok is false when even the median has fewer than ten beyond it.
func tailPercentile(n int) (q float64, beyond int, ok bool) {
	for _, q := range tailPercentiles {
		if b := n - rank(n, q); b >= 10 {
			return q, b, true
		}
	}
	return 0, 0, false
}

// median of float samples (the mean of the middle two for an even count).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// sumMetric adds up the current value of every counter or gauge in the
// registry whose name has the given prefix and suffix, e.g. every node's
// "via.nic.<node>.doorbells".
func sumMetric(r *metrics.Registry, prefix, suffix string) int64 {
	var sum int64
	for _, name := range r.Names() {
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) || len(name) < len(prefix)+len(suffix) {
			continue
		}
		if k, _ := r.KindOf(name); k == metrics.KindHist {
			continue
		}
		sum += r.Value(name)
	}
	return sum
}
