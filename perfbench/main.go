// Command perfbench is the repository benchmark: it runs one named
// data-path workload through the simulator in this process, repeatedly
// for a fixed time, verifies every byte moved, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer metrics) as one JSON object on
// the last line of standard output.
//
//	go run . -workload stripe-write -seed 1 -seconds 10 -trace 0
//
// See README.md for the workloads, the metrics and what each should move.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"

	"dafsio/internal/trace"
)

// defaultSeed is the seed whose modeled numbers expected.json records.
const defaultSeed = 1

// spansDir is where a traced run writes its phase spans, inside the
// build directory run.py keeps out of version control.
var spansDir = filepath.Join(".bench_build", "spans")

// minReps is the fewest repetitions a run makes however short -seconds is,
// so every reported host metric is a median.
const minReps = 3

//go:embed expected.json
var expectedJSON []byte

// expected records the modeled numbers of every workload at defaultSeed.
type expected struct {
	Seed      int64              `json:"seed"`
	Workloads map[string]modeled `json:"workloads"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: stripe-write, wide-read, strided-coll or nfs-read")
	seed := fs.Int64("seed", defaultSeed, "seed for data contents and request order")
	seconds := fs.Float64("seconds", 10, "measure for this long (at least three repetitions)")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	record := fs.Bool("record", false, "print the modeled numbers for expected.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookup(*name)
	if !ok || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of stripe-write, wide-read, strided-coll, nfs-read), -seconds > 0 and -trace 0|1\n")
		return 2
	}
	// The kernel runs one simulated process at a time. One P keeps the
	// garbage collector on the same core, so host time is the whole cost
	// of the run and does not depend on a second core being free.
	runtime.GOMAXPROCS(1)
	in := newInputs(w, *seed)

	if *record {
		o, err := runRep(w, in, false, newPhases(time.Now))
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		b, _ := json.Marshal(o.mod)
		fmt.Fprintf(stdout, "%q: %s\n", w.name, b)
		return 0
	}

	res, err := measure(w, in, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	problems := res.check(w, *seed)
	for _, p := range problems {
		fmt.Fprintf(stdout, "CHECK FAILED: %s\n", p)
	}
	var ms []metric
	if *traced == 1 {
		ms = res.perLayer()
		if err := writeSpans(res.ph, spansDir, fmt.Sprintf("%s-seed%d.json", w.name, *seed)); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	} else {
		ms = res.endToEnd()
	}
	res.report(stdout, w, *seed, ms, len(problems) == 0)
	return 0
}

// result is every repetition of one run.
type result struct {
	plain  []*outcome
	traced []*outcome
	probes []probes
	gomem  []memDelta // per plain repetition, traced runs only
	cpu    map[string]float64
	rssMB  float64
	ph     *phases
}

// memDelta is the Go allocator's work over one repetition.
type memDelta struct {
	allocMB      float64
	mallocs, gcs float64
}

// measure repeats the workload until the time is up. A traced run
// alternates untraced and traced repetitions under one CPU profile, and
// replays the request stream through the layer probes after each pair.
func measure(w workload, in *inputs, d time.Duration, traced bool) (*result, error) {
	res := &result{ph: newPhases(time.Now)}
	cpuNs := map[string]float64{}
	deadline := time.Now().Add(d)
	for len(res.plain) < minReps || time.Now().Before(deadline) {
		if !traced {
			o, err := runRep(w, in, false, res.ph)
			if err != nil {
				return nil, err
			}
			res.plain = append(res.plain, o)
			continue
		}
		if err := res.profiledPair(w, in, cpuNs); err != nil {
			return nil, err
		}
		pr, err := runProbes(w, in)
		if err != nil {
			return nil, err
		}
		res.probes = append(res.probes, pr)
	}
	if traced {
		res.cpu = shares(cpuNs)
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
			res.rssMB = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
		}
	}
	return res, nil
}

// profiledPair runs one untraced and one traced repetition under a CPU
// profile, folds the profile into cpuNs, and records the allocator's work
// over the untraced repetition.
func (res *result) profiledPair(w workload, in *inputs, cpuNs map[string]float64) error {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	o, err := runRep(w, in, false, res.ph)
	runtime.ReadMemStats(&after)
	var t *outcome
	if err == nil {
		t, err = runRep(w, in, true, res.ph)
	}
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	res.plain = append(res.plain, o)
	res.traced = append(res.traced, t)
	res.gomem = append(res.gomem, memDelta{
		allocMB: float64(after.TotalAlloc-before.TotalAlloc) / 1e6,
		mallocs: float64(after.Mallocs - before.Mallocs),
		gcs:     float64(after.NumGC - before.NumGC),
	})
	return foldProfile(cpuNs, prof.Bytes())
}

// check returns every way the run's outputs are wrong: failed or
// unverified operations, modeled numbers that differ between repetitions
// or between traced and untraced ones, modeled numbers at the default
// seed that differ from expected.json, or a workload too short for p90.
func (res *result) check(w workload, seed int64) []string {
	var problems []string
	first := res.plain[0].mod
	for i, o := range slices.Concat(res.plain[1:], res.traced) {
		if o.mod != first {
			problems = append(problems, fmt.Sprintf("repetition %d modeled %+v, first modeled %+v", i+1, o.mod, first))
		}
	}
	if seed == defaultSeed {
		var exp expected
		if err := json.Unmarshal(expectedJSON, &exp); err != nil {
			problems = append(problems, fmt.Sprintf("expected.json: %v", err))
		} else if want, ok := exp.Workloads[w.name]; !ok || exp.Seed != defaultSeed {
			problems = append(problems, fmt.Sprintf("expected.json has no %s at seed %d", w.name, defaultSeed))
		} else if first != want {
			problems = append(problems, fmt.Sprintf("modeled %+v, expected.json records %+v", first, want))
		}
	}
	if q, _, ok := tailPercentile(w.timedCalls()); !ok || q < 90 {
		problems = append(problems, fmt.Sprintf("%d timed calls leave fewer than 10 beyond p90", w.timedCalls()))
	}
	attempted, failed := res.counts()
	if failed > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d operations failed or read back wrong", failed, attempted))
	}
	return problems
}

func (res *result) counts() (attempted, failed int) {
	for _, o := range slices.Concat(res.plain, res.traced) {
		attempted += o.attempted
		failed += o.failed
	}
	return attempted, failed
}

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
}

// hostMedian is the median of one host measurement over repetitions.
func hostMedian(reps []*outcome, f func(*outcome) float64) float64 {
	v := make([]float64, len(reps))
	for i, o := range reps {
		v[i] = f(o)
	}
	return median(v)
}

// endToEnd is the host cost of regenerating the workload's result. The
// modeled numbers are exact per seed, so they are checked rather than
// bounded, and reported by modeledMetrics.
func (res *result) endToEnd() []metric {
	return []metric{
		{"wall_s", "s", hostMedian(res.plain, func(o *outcome) float64 { return o.wall.Seconds() })},
		{"setup_s", "s", hostMedian(res.plain, func(o *outcome) float64 { return o.setup.Seconds() })},
		{"io_s", "s", hostMedian(res.plain, func(o *outcome) float64 { return o.io.Seconds() })},
		{"live_heap_mb", "MB", hostMedian(res.plain, func(o *outcome) float64 { return float64(o.liveHeap) / 1e6 })},
	}
}

// modeledMetrics are the simulated results: the paper's numbers.
func (res *result) modeledMetrics() []metric {
	m := res.plain[0].mod
	return []metric{
		{"sim_mbps", "MB/s", m.mbps()},
		{"sim_op_p50_us", "us", float64(m.P50) / 1e3},
		{"sim_op_p90_us", "us", float64(m.P90) / 1e3},
	}
}

func (res *result) perLayer() []metric {
	plain := func(name, unit string, f func(*outcome) float64) metric {
		return metric{name, unit, hostMedian(res.plain, f)}
	}
	probe := func(name string, f func(probes) time.Duration) metric {
		v := make([]float64, len(res.probes))
		for i, p := range res.probes {
			v[i] = f(p).Seconds()
		}
		return metric{name, "s", median(v)}
	}
	mem := func(name, unit string, f func(memDelta) float64) metric {
		v := make([]float64, len(res.gomem))
		for i, d := range res.gomem {
			v[i] = f(d)
		}
		return metric{name, unit, median(v)}
	}
	pl := res.traced[0].planes
	count := func(name string, v int64) metric { return metric{name, "count", float64(v)} }
	ms := append(res.modeledMetrics(),
		plain("storage.prefill_s", "s", func(o *outcome) float64 { return o.prefill.Seconds() }),
		plain("storage.verify_s", "s", func(o *outcome) float64 { return o.verify.Seconds() }),
		probe("storage.replay_s", func(p probes) time.Duration { return p.storage }),
		mem("go.alloc_mb", "MB", func(d memDelta) float64 { return d.allocMB }),
		mem("go.mallocs", "count", func(d memDelta) float64 { return d.mallocs }),
		mem("go.gc_cycles", "count", func(d memDelta) float64 { return d.gcs }),
		count("sim.events", res.plain[0].mod.Events),
		plain("sim.host_ns_per_event", "ns", func(o *outcome) float64 {
			return float64(o.io.Nanoseconds()) / float64(max(o.ioEvents, 1))
		}),
		plain("cluster.new_s", "s", func(o *outcome) float64 { return o.clusterNew.Seconds() }),
		plain("cluster.connect_s", "s", func(o *outcome) float64 { return o.connect.Seconds() }),
		count("via.pinned_regions", pl.pinned),
		count("dafs.sessions", pl.sessions),
		probe("aggregate.plan_s", func(p probes) time.Duration { return p.plan }),
		probe("layout.map_s", func(p probes) time.Duration { return p.mapping }),
		count("mpiio.stage_hiwater", pl.stageHiwat),
		count("via.doorbells", pl.doorbells),
		metric{"via.tx_mb", "MB", float64(pl.txBytes) / 1e6},
		count("dafs.client_ops", pl.clientOps),
		count("dafs.retries", pl.retries),
		count("dafs.timeouts", pl.timeouts),
		count("dafs.server_requests", pl.serverReqs),
	)
	for c, name := range simtimeNames {
		ms = append(ms, metric{"simtime." + name + "_us", "us", float64(pl.simtime[c]) / 1e3})
	}
	for _, b := range cpuBuckets {
		ms = append(ms, metric{"cpu." + b, "frac", res.cpu[b]})
	}
	plainIO := hostMedian(res.plain, func(o *outcome) float64 { return o.io.Seconds() })
	tracedIO := hostMedian(res.traced, func(o *outcome) float64 { return o.io.Seconds() })
	ms = append(ms,
		metric{"proc.peak_rss_mb", "MB", res.rssMB},
		metric{"trace.overhead_frac", "frac", tracedIO/plainIO - 1},
	)
	return ms
}

// simtimeNames names the trace breakdown's categories, in trace.Category
// order.
var simtimeNames = [trace.NumCategories]string{
	trace.CatClientCPU: "client_cpu",
	trace.CatDoorbell:  "doorbell",
	trace.CatNIC:       "nic",
	trace.CatWire:      "wire",
	trace.CatServerCPU: "server_cpu",
	trace.CatDisk:      "disk",
	trace.CatQueue:     "queue",
	trace.CatRetry:     "retry",
}

// report prints a readable summary, then the result object as the last
// line of standard output.
func (res *result) report(out io.Writer, w workload, seed int64, ms []metric, correct bool) {
	attempted, failed := res.counts()
	q, beyond, _ := tailPercentile(w.timedCalls())
	fmt.Fprintf(out, "workload %s (%s), seed %d: %d repetitions, %d traced\n", w.name, w.why, seed, len(res.plain), len(res.traced))
	fmt.Fprintf(out, "timed calls per repetition %d: highest percentile with >=10 beyond is p%g (%d beyond)\n", w.timedCalls(), q, beyond)
	fmt.Fprintf(out, "%-24s %14.6g ratio (%d of %d operations)\n", "fail_frac", float64(failed)/float64(max(attempted, 1)), failed, attempted)
	if len(res.traced) == 0 {
		for _, m := range res.modeledMetrics() {
			fmt.Fprintf(out, "%-24s %14.6g %s (modeled, exact per seed)\n", m.name, m.value, m.unit)
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	obj := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	io := make([]float64, len(res.plain))
	for i, o := range res.plain {
		io[i] = o.io.Seconds()
	}
	fmt.Fprintf(out, "io_s over repetitions: min %.4g, median %.4g, max %.4g\n", slices.Min(io), median(io), slices.Max(io))
	for _, m := range ms {
		fmt.Fprintf(out, "%-24s %14.6g %s\n", m.name, m.value, m.unit)
		obj.Metrics[m.name] = value{m.value, m.unit}
	}
	b, _ := json.Marshal(obj)
	fmt.Fprintf(out, "%s\n", b)
}

// writeSpans exports the benchmark's own phase spans through the
// program's Chrome trace writer.
func writeSpans(ph *phases, dir, name string) error {
	tr, err := ph.tracer()
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}
