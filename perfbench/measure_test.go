package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"dafsio/internal/metrics"
	"dafsio/internal/sim"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		q    float64
		want int64
	}{{50, 50}, {90, 90}, {91, 100}, {99, 100}, {0, 10}, {10, 10}, {11, 20}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("p%g = %d, want %d", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		q      float64
		beyond int
		ok     bool
	}{
		{19, 0, 0, false},
		{20, 50, 10, true},
		{99, 50, 49, true}, // p90 would leave only 9 beyond
		{100, 90, 10, true},
		{384, 90, 38, true},
		{999, 90, 99, true},
		{1000, 99, 10, true},
		{10000, 99.9, 10, true},
	} {
		q, beyond, ok := tailPercentile(c.n)
		if q != c.q || beyond != c.beyond || ok != c.ok {
			t.Errorf("tailPercentile(%d) = p%g, %d beyond, %v; want p%g, %d, %v", c.n, q, beyond, ok, c.q, c.beyond, c.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	v := []float64{4, 1, 3, 2}
	if got := median(v); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
	if v[0] != 4 {
		t.Errorf("median reordered its input: %v", v)
	}
}

// fakeClock advances by one millisecond per reading.
func fakeClock() func() time.Time {
	t := time.Unix(0, 0)
	return func() time.Time {
		t = t.Add(time.Millisecond)
		return t
	}
}

func TestPhasesNestAndLastEndWins(t *testing.T) {
	ph := newPhases(fakeClock()) // origin at 1ms
	root := ph.begin("rep", 0)   // 1ms
	io := ph.begin("io", root)   // 2ms
	if d := ph.end(io); d != time.Millisecond {
		t.Errorf("first end: %v", d)
	}
	if d := ph.end(io); d != 2*time.Millisecond { // a later finisher moves the end
		t.Errorf("second end: %v", d)
	}
	if d := ph.end(root); d != 4*time.Millisecond {
		t.Errorf("root: %v", d)
	}
	want := []span{
		{Name: "rep", ID: 1, Parent: 0, Start: time.Millisecond, End: 5 * time.Millisecond},
		{Name: "io", ID: 2, Parent: 1, Start: 2 * time.Millisecond, End: 4 * time.Millisecond},
	}
	for i, s := range ph.spans {
		if s != want[i] {
			t.Errorf("span %d = %+v, want %+v", i, s, want[i])
		}
	}
}

func TestPhasesExportThroughChromeWriter(t *testing.T) {
	ph := newPhases(fakeClock())
	root := ph.begin("rep", 0)
	ph.end(ph.begin("build", root))
	ph.end(root)
	tr, err := ph.tracer()
	if err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("%d spans, want 2", len(spans))
	}
	if spans[0].Op != "rep" || spans[1].Op != "build" || spans[1].Parent != spans[0].ID {
		t.Errorf("spans %+v", spans)
	}
	if spans[1].Start != sim.Time(2*time.Millisecond) || spans[1].End != sim.Time(3*time.Millisecond) {
		t.Errorf("build span at [%v, %v], want host offsets [2ms, 3ms]", spans[1].Start, spans[1].End)
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not JSON: %v", err)
	}
	complete := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			complete++
		}
	}
	if complete != 2 {
		t.Errorf("%d complete events, want 2", complete)
	}
}

func TestSumMetricAddsMatchingCountersAndGauges(t *testing.T) {
	r := metrics.New(sim.NewKernel())
	r.Counter("via.nic.client0.doorbells").Add(3)
	r.Counter("via.nic.server.doorbells").Add(4)
	r.Gauge("via.nic.client0.pinned_regions").Set(5)
	r.Gauge("via.nic.server.pinned_regions").Set(6)
	r.Counter("via.nic.client0.doorbells_extra").Add(100) // suffix differs
	r.Counter("dafs.client.client0.doorbells").Add(100)   // prefix differs
	r.Hist("via.nic.x.doorbells").Observe(100)            // histograms are not summed
	if got := sumMetric(r, "via.nic.", ".doorbells"); got != 7 {
		t.Errorf("doorbells = %d, want 7", got)
	}
	if got := sumMetric(r, "via.nic.", ".pinned_regions"); got != 11 {
		t.Errorf("pinned = %d, want 11", got)
	}
	if got := sumMetric(r, "mpiio.striped.", ".retries"); got != 0 {
		t.Errorf("absent = %d, want 0", got)
	}
}
