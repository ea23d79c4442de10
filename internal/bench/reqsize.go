package bench

import (
	"dafsio/internal/cluster"
	"dafsio/internal/dafs"
	"dafsio/internal/model"
	"dafsio/internal/mpiio"
	"dafsio/internal/sim"
	"dafsio/internal/stats"
)

// transferResult captures one measured transfer sweep point.
type transferResult struct {
	bw    float64  // MB/s
	cpuMB sim.Time // client CPU time per megabyte moved
}

// dafsTransfer measures sequential MPI-IO requests of one size over DAFS.
func dafsTransfer(size int, total int64, write bool, cfg func(*mpiio.StripedDAFSDriver), opts *dafs.Options) transferResult {
	return dafsTransferProf(nil, size, total, write, cfg, opts)
}

// dafsTransferProf is dafsTransfer under an explicit cost model (nil =
// default clan-1998).
func dafsTransferProf(prof *model.Profile, size int, total int64, write bool, cfg func(*mpiio.StripedDAFSDriver), opts *dafs.Options) transferResult {
	c := cluster.New(cluster.Config{Clients: 1, DAFS: true, Profile: prof})
	if !write {
		prefill(c, "f", total)
	} else {
		if _, err := c.Store.Create("f"); err != nil {
			panic(err)
		}
	}
	var res transferResult
	c.K.Spawn("app", func(p *sim.Proc) {
		f, drv := openDafs(p, c, 0, "f", mpiio.ModeRdWr, opts)
		if cfg != nil {
			cfg(drv)
		}
		res = sweep(p, c, f, size, total, write)
		f.Close(p)
	})
	mustRun(c)
	return res
}

// nfsTransfer measures the same sweep over NFS.
func nfsTransfer(size int, total int64, write bool) transferResult {
	return nfsTransferProf(nil, size, total, write)
}

// nfsTransferProf is nfsTransfer under an explicit cost model.
func nfsTransferProf(prof *model.Profile, size int, total int64, write bool) transferResult {
	c := cluster.New(cluster.Config{Clients: 1, NFS: true, Profile: prof})
	if !write {
		prefill(c, "f", total)
	} else {
		if _, err := c.Store.Create("f"); err != nil {
			panic(err)
		}
	}
	var res transferResult
	c.K.Spawn("app", func(p *sim.Proc) {
		f := openNfs(p, c, 0, "f", mpiio.ModeRdWr)
		res = sweep(p, c, f, size, total, write)
		f.Close(p)
	})
	mustRun(c)
	return res
}

// sweep issues sequential size-byte requests covering total bytes and
// reports bandwidth plus client CPU per MB. The first request warms
// registrations and is excluded.
func sweep(p *sim.Proc, c *cluster.Cluster, f *mpiio.File, size int, total int64, write bool) transferResult {
	buf := make([]byte, size)
	for i := range buf {
		buf[i] = byte(i)
	}
	node := c.ClientNodes[0]
	op := func(off int64) {
		var err error
		if write {
			_, err = f.WriteAt(p, off, buf)
		} else {
			_, err = f.ReadAt(p, off, buf)
		}
		if err != nil {
			panic(err)
		}
	}
	op(0) // warm
	start, cpu0 := p.Now(), node.CPU.BusyTime()
	var moved int64
	for off := int64(0); off+int64(size) <= total; off += int64(size) {
		op(off)
		moved += int64(size)
	}
	elapsed := p.Now() - start
	cpu := node.CPU.BusyTime() - cpu0
	return transferResult{
		bw:    stats.MBps(moved, elapsed),
		cpuMB: sim.Time(float64(cpu) / (float64(moved) / 1e6)),
	}
}

// T2RequestSize reproduces the headline single-client curve: MPI-IO read
// and write bandwidth vs request size, DAFS vs NFS.
func T2RequestSize() *stats.Table {
	t := &stats.Table{
		ID:      "T2",
		Title:   "MPI-IO bandwidth vs request size, one client (cached server)",
		Note:    "sequential requests; DAFS switches inline->direct above 8KB; NFS rsize/wsize = 32KB (noac)",
		Columns: []string{"request", "dafs-rd", "dafs-wr", "nfs-rd", "nfs-wr"},
	}
	for _, size := range []int{512, 2048, 8192, 32768, 131072, 524288, 1 << 20} {
		total := totalFor(size)
		dr := dafsTransfer(size, total, false, nil, nil)
		dw := dafsTransfer(size, total, true, nil, nil)
		nr := nfsTransfer(size, total, false)
		nw := nfsTransfer(size, total, true)
		t.AddRow(stats.Size(int64(size)),
			stats.BW(dr.bw), stats.BW(dw.bw), stats.BW(nr.bw), stats.BW(nw.bw))
	}
	return t
}

// T3InlineDirect forces each DAFS transfer discipline across sizes to show
// the crossover that motivates the threshold switch.
func T3InlineDirect() *stats.Table {
	t := &stats.Table{
		ID:      "T3",
		Title:   "DAFS transfer discipline: inline vs direct read bandwidth",
		Note:    "inline carries data in messages (CPU copies both ends); direct uses server-driven RDMA.\nauto = driver threshold at 8KB",
		Columns: []string{"request", "inline MB/s", "direct MB/s", "auto MB/s"},
	}
	// Sessions with a large MaxInline so inline can be forced at all sizes.
	bigInline := &dafs.Options{MaxInline: 256 << 10}
	for _, size := range []int{512, 2048, 8192, 32768, 131072, 262144} {
		total := totalFor(size)
		inline := dafsTransfer(size, total, false, func(d *mpiio.StripedDAFSDriver) { d.DirectThreshold = 256 << 10 }, bigInline)
		direct := dafsTransfer(size, total, false, func(d *mpiio.StripedDAFSDriver) { d.DirectThreshold = 0 }, bigInline)
		auto := dafsTransfer(size, total, false, func(d *mpiio.StripedDAFSDriver) { d.DirectThreshold = 8192 }, bigInline)
		t.AddRow(stats.Size(int64(size)),
			stats.BW(inline.bw), stats.BW(direct.bw), stats.BW(auto.bw))
	}
	return t
}

// T4CPUOverhead reports the paper's key efficiency metric: client CPU time
// per megabyte moved.
func T4CPUOverhead() *stats.Table {
	t := &stats.Table{
		ID:      "T4",
		Title:   "Client CPU overhead (64KB requests, 8MB moved)",
		Note:    "CPU ms per MB of data; direct DAFS I/O leaves the client CPU nearly idle",
		Columns: []string{"stack", "MB/s", "cpu ms/MB", "cpu util"},
	}
	const size = 64 << 10
	const total = 8 << 20
	add := func(name string, r transferResult) {
		// Utilization while streaming = cpu-per-byte * bytes-per-sec.
		util := float64(r.cpuMB) / 1e9 * r.bw
		t.AddRow(name, stats.BW(r.bw), stats.Us(r.cpuMB/1000), stats.Pct(util))
	}
	add("dafs read", dafsTransfer(size, total, false, nil, nil))
	add("dafs write", dafsTransfer(size, total, true, nil, nil))
	add("nfs read", nfsTransfer(size, total, false))
	add("nfs write", nfsTransfer(size, total, true))
	return t
}

// T8RegCache quantifies memory-registration cost and the driver's
// registration cache (the per-buffer pinning amortization).
func T8RegCache() *stats.Table {
	t := &stats.Table{
		ID:      "T8",
		Title:   "Registration cache effect on direct writes (16 reuses of one buffer)",
		Note:    "no-cache registers and deregisters the buffer around every operation",
		Columns: []string{"request", "no-cache MB/s", "cache MB/s", "speedup"},
	}
	measure := func(size int, cache bool) float64 {
		c := newDafsRig()
		if _, err := c.Store.Create("f"); err != nil {
			panic(err)
		}
		var bw float64
		c.K.Spawn("app", func(p *sim.Proc) {
			f, drv := openDafs(p, c, 0, "f", mpiio.ModeRdWr, nil)
			drv.RegCache = cache
			drv.DirectThreshold = 0 // always direct
			buf := make([]byte, size)
			start := p.Now()
			const iters = 16
			for i := 0; i < iters; i++ {
				if _, err := f.WriteAt(p, 0, buf); err != nil {
					panic(err)
				}
			}
			bw = stats.MBps(int64(size)*iters, p.Now()-start)
			f.Close(p)
		})
		mustRun(c)
		return bw
	}
	for _, size := range []int{4096, 32768, 131072, 524288, 1 << 20} {
		no := measure(size, false)
		yes := measure(size, true)
		t.AddRow(stats.Size(int64(size)), stats.BW(no), stats.BW(yes), stats.Ratio(yes/no))
	}
	return t
}

// T10OpLatency times the metadata operations both stacks share.
func T10OpLatency() *stats.Table {
	t := &stats.Table{
		ID:      "T10",
		Title:   "Per-operation latency (average of 8 warm operations)",
		Columns: []string{"operation", "dafs us", "nfs us"},
	}
	type probe struct {
		name string
		run  func(p *sim.Proc, f *mpiio.File, i int)
	}
	probes := []probe{
		{"getattr (size)", func(p *sim.Proc, f *mpiio.File, i int) { f.GetSize(p) }},
		{"truncate", func(p *sim.Proc, f *mpiio.File, i int) { f.SetSize(p, int64(1000+i)) }},
		{"sync", func(p *sim.Proc, f *mpiio.File, i int) { f.Sync(p) }},
		{"512B read", func(p *sim.Proc, f *mpiio.File, i int) { f.ReadAt(p, 0, make([]byte, 512)) }},
		{"512B write", func(p *sim.Proc, f *mpiio.File, i int) { f.WriteAt(p, 0, make([]byte, 512)) }},
		{"4KB read", func(p *sim.Proc, f *mpiio.File, i int) { f.ReadAt(p, 0, make([]byte, 4096)) }},
		{"4KB write", func(p *sim.Proc, f *mpiio.File, i int) { f.WriteAt(p, 0, make([]byte, 4096)) }},
	}
	measure := func(nfsStack bool) []sim.Time {
		out := make([]sim.Time, len(probes))
		c := cluster.New(cluster.Config{Clients: 1, DAFS: !nfsStack, NFS: nfsStack})
		prefill(c, "ops", 64<<10)
		c.K.Spawn("app", func(p *sim.Proc) {
			var f *mpiio.File
			if nfsStack {
				f = openNfs(p, c, 0, "ops", mpiio.ModeRdWr)
			} else {
				f, _ = openDafs(p, c, 0, "ops", mpiio.ModeRdWr, nil)
			}
			for pi, pr := range probes {
				pr.run(p, f, 0) // warm
				start := p.Now()
				const iters = 8
				for i := 1; i <= iters; i++ {
					pr.run(p, f, i)
				}
				out[pi] = (p.Now() - start) / iters
			}
			f.Close(p)
		})
		mustRun(c)
		return out
	}
	dafsT := measure(false)
	nfsT := measure(true)
	for i, pr := range probes {
		t.AddRow(pr.name, stats.Us(dafsT[i]), stats.Us(nfsT[i]))
	}
	return t
}
