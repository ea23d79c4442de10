// Command mpiobench regenerates the evaluation tables (T1-T15): for each
// experiment it builds a fresh simulated cluster, runs the workload, and
// prints the table. Results are deterministic: a given binary prints
// identical numbers on every run.
//
// Usage:
//
//	mpiobench            # run every experiment
//	mpiobench -list      # list experiment IDs and titles
//	mpiobench -run T5    # run one experiment
//	mpiobench -run T5 -cpuprofile cpu.out -memprofile mem.out
//	                     # profile the run (inspect with go tool pprof)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"dafsio/internal/bench"
	"dafsio/internal/stats"
)

func main() {
	list := flag.Bool("list", false, "list experiments and exit")
	run := flag.String("run", "", "run a single experiment by ID (e.g. T5)")
	quiet := flag.Bool("q", false, "omit wall-clock timing lines")
	fig := flag.Bool("fig", false, "also render each experiment as an ASCII figure")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiments to `file`")
	memProfile := flag.String("memprofile", "", "write a heap profile to `file` after the experiments")
	flag.Parse()

	if *list {
		for _, e := range bench.All {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}
	selected := bench.All
	if *run != "" {
		e := bench.ByID(*run)
		if e == nil {
			fmt.Fprintf(os.Stderr, "mpiobench: unknown experiment %q (try -list)\n", *run)
			os.Exit(1)
		}
		selected = []bench.Experiment{*e}
	}
	// Profiles are diagnostic only: they go to their own files and leave
	// the tables on stdout byte-identical.
	if *cpuProfile != "" {
		f := create(*cpuProfile)
		check(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			check(f.Close())
		}()
	}
	if *memProfile != "" {
		f := create(*memProfile)
		defer func() {
			runtime.GC() // up-to-date live-heap figures, as go test -memprofile
			check(pprof.WriteHeapProfile(f))
			check(f.Close())
		}()
	}
	for _, e := range selected {
		t0 := time.Now()
		tbl := e.Run()
		tbl.Fprint(os.Stdout)
		if *fig {
			if ch := stats.ChartFromTable(tbl); ch != nil {
				ch.Fprint(os.Stdout)
				fmt.Println()
			}
		}
		if !*quiet {
			fmt.Printf("  [profile clan-1998; %v wall time]\n\n", time.Since(t0).Round(time.Millisecond))
		}
	}
}

func create(name string) *os.File {
	f, err := os.Create(name)
	check(err)
	return f
}

// check exits on a profile-writing error.
func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpiobench: %v\n", err)
		os.Exit(1)
	}
}
