// Package bench is the experiment harness: one entry per table/figure of
// the (reconstructed) evaluation, each rebuilding its cluster from scratch
// and reporting a stats.Table. The same entries back cmd/mpiobench and the
// root-level testing.B benchmarks, so the paper's numbers regenerate from
// either.
//
// All results are *simulated* time under the model.CLAN1998 cost model; see
// DESIGN.md §2 for the substitution argument and EXPERIMENTS.md for the
// recorded outputs.
package bench

import (
	"fmt"

	"dafsio/internal/cluster"
	"dafsio/internal/dafs"
	"dafsio/internal/mpiio"
	"dafsio/internal/sim"
	"dafsio/internal/stats"
)

// Experiment is one reproducible table/figure.
type Experiment struct {
	ID    string
	Title string
	Run   func() *stats.Table
}

// All lists every experiment in presentation order.
var All = []Experiment{
	{"T1", "Raw VIA latency and bandwidth", T1RawVIA},
	{"T2", "MPI-IO bandwidth vs request size: DAFS vs NFS (1 client)", T2RequestSize},
	{"T3", "DAFS inline vs direct transfer discipline", T3InlineDirect},
	{"T4", "Client CPU overhead per megabyte", T4CPUOverhead},
	{"T5", "Aggregate bandwidth vs number of clients", T5Scaling},
	{"T6", "Collective vs independent noncontiguous I/O", T6Collective},
	{"T7", "DAFS operation latency breakdown", T7Breakdown},
	{"T8", "Memory registration cost and the registration cache", T8RegCache},
	{"T9", "Nonblocking I/O compute/transfer overlap", T9Overlap},
	{"T10", "Per-operation latency: DAFS vs NFS", T10OpLatency},
	{"T11", "Model sensitivity of the headline ratios", T11Sensitivity},
	{"T12", "Faster networks widen the gap (future-work projection)", T12FasterNetworks},
	{"T13", "Commodity gigabit-Ethernet profile", T13GbEProfile},
	{"T14", "Disk-bound server: transports converge (negative result)", T14DiskBound},
	{"T15", "Striped aggregate bandwidth: clients x servers", T15StripedScaling},
	{"T16", "Failover under a server crash: replication 1 vs 2", T16Failover},
	{"T17", "Strided collective over striping: aligned domains + batch gather", T17StripedCollective},
	{"T18", "Wide striped scaling: clients x servers at 10k-proc populations", T18WideStriping},
	{"T19", "Elastic membership: live join, background re-silver, versioned layouts", T19Elastic},
	{"T15N", "Striped NFS baseline: multi-mount striping without DAFS", T15NStripedNFS},
}

// ByID finds an experiment.
func ByID(id string) *Experiment {
	for i := range All {
		if All[i].ID == id {
			return &All[i]
		}
	}
	return nil
}

// mustRun drives a cluster to completion, panicking on simulation errors
// (an error here is a bug in the model, not a result).
func mustRun(c *cluster.Cluster) {
	if err := c.Run(); err != nil {
		panic(fmt.Sprintf("bench: simulation failed: %v", err))
	}
}

// prefill writes content into the store directly (zero simulated time), for
// read experiments that need a populated file.
func prefill(c *cluster.Cluster, name string, n int64) {
	f, err := c.Store.Create(name)
	if err != nil {
		panic(err)
	}
	buf := make([]byte, 64<<10)
	for i := range buf {
		buf[i] = byte(i)
	}
	for off := int64(0); off < n; off += int64(len(buf)) {
		chunk := buf
		if rem := n - off; rem < int64(len(chunk)) {
			chunk = chunk[:rem]
		}
		f.WriteAt(chunk, off)
	}
}

// openDafs dials a session and opens an MPI-IO file over it.
func openDafs(p *sim.Proc, c *cluster.Cluster, client int, name string, mode int, opts *dafs.Options) (*mpiio.File, *mpiio.StripedDAFSDriver) {
	cl, err := c.DialDAFS(p, client, opts)
	if err != nil {
		panic(fmt.Sprintf("bench: dafs dial: %v", err))
	}
	drv := mpiio.NewDAFSDriver(cl)
	f, err := mpiio.Open(p, nil, drv, name, mode, nil)
	if err != nil {
		panic(fmt.Sprintf("bench: dafs open: %v", err))
	}
	return f, drv
}

// openNfs mounts and opens an MPI-IO file over NFS.
func openNfs(p *sim.Proc, c *cluster.Cluster, client int, name string, mode int) *mpiio.File {
	cl, err := c.MountNFS(p, client, nil)
	if err != nil {
		panic(fmt.Sprintf("bench: nfs mount: %v", err))
	}
	f, err := mpiio.Open(p, nil, mpiio.NewNFSDriver(cl), name, mode, nil)
	if err != nil {
		panic(fmt.Sprintf("bench: nfs open: %v", err))
	}
	return f
}

// totalFor picks a per-point transfer volume that keeps small-request
// points tractable while giving large requests enough samples.
func totalFor(size int) int64 {
	total := int64(size) * 64
	if total < 1<<20 {
		total = 1 << 20
	}
	if total > 8<<20 {
		total = 8 << 20
	}
	return total
}
