package main

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"time"

	"dafsio/internal/cluster"
	"dafsio/internal/metrics"
	"dafsio/internal/mpi"
	"dafsio/internal/mpiio"
	"dafsio/internal/sim"
	"dafsio/internal/storage"
	"dafsio/internal/trace"
)

// modeled is what the simulation computes. It depends on the workload and
// the seed only, so every repeat, traced or not, must reproduce it exactly.
type modeled struct {
	Bytes   int64 `json:"bytes"`
	Elapsed int64 `json:"elapsed_ns"` // barrier release to the last client's finish
	P50     int64 `json:"p50_ns"`
	P90     int64 `json:"p90_ns"`
	Events  int64 `json:"events"` // kernel events dispatched over the whole run
}

func (m modeled) mbps() float64 { return float64(m.Bytes) / 1e6 / (float64(m.Elapsed) / 1e9) }

// outcome is one repetition: build, prefill, connect, warm up, measured
// I/O, close and verify.
type outcome struct {
	wall, setup, io time.Duration
	liveHeap        uint64 // bytes live after a forced GC at the end of set-up
	mod             modeled
	lat             []int64 // modeled latency of every timed call, sorted
	attempted       int
	failed          int

	clusterNew, prefill, connect, verify time.Duration
	ioEvents                             uint64

	planes *planes // traced repetitions only
}

// planes is what a traced repetition reads from the trace and metrics
// planes the program already has, summed over every node.
type planes struct {
	pinned     int64 // via.nic.*.pinned_regions at the end of set-up
	sessions   int64 // dafs.server.*.sessions
	doorbells  int64 // via.nic.*.doorbells
	txBytes    int64 // via.nic.*.tx_bytes
	clientOps  int64 // dafs.client.*.ops
	retries    int64 // dafs.client.*.redials + mpiio.striped.*.retries
	timeouts   int64 // dafs.client.*.timeouts
	serverReqs int64 // dafs.server.*.requests
	stageHiwat int64 // mpiio.striped.*.stage_hiwater
	simtime    [trace.NumCategories]sim.Time
}

func readPlanes(c *cluster.Cluster, pinned int64) *planes {
	r := c.Metrics
	return &planes{
		pinned:     pinned,
		sessions:   sumMetric(r, "dafs.server.", ".sessions"),
		doorbells:  sumMetric(r, "via.nic.", ".doorbells"),
		txBytes:    sumMetric(r, "via.nic.", ".tx_bytes"),
		clientOps:  sumMetric(r, "dafs.client.", ".ops"),
		retries:    sumMetric(r, "dafs.client.", ".redials") + sumMetric(r, "mpiio.striped.", ".retries"),
		timeouts:   sumMetric(r, "dafs.client.", ".timeouts"),
		serverReqs: sumMetric(r, "dafs.server.", ".requests"),
		stageHiwat: sumMetric(r, "mpiio.striped.", ".stage_hiwater"),
		simtime:    c.Tracer.ComputeBreakdown().Total,
	}
}

// rep holds the state one repetition's client procs share. The kernel runs
// one proc at a time, so they need no locking.
type rep struct {
	w  workload
	in *inputs
	c  *cluster.Cluster
	ph *phases
	o  *outcome

	ready           *sim.WaitGroup
	opened, arrived int
	start           time.Time
	root, connectID int
	warmID, ioID    int
	simStart        sim.Time
	ioEvents        uint64
	pinned          int64
}

// runRep runs one repetition. A traced repetition installs the program's
// tracer and metrics registry through cluster.Config; nothing else differs.
func runRep(w workload, in *inputs, traced bool, ph *phases) (*outcome, error) {
	o := &outcome{}
	r := &rep{w: w, in: in, ph: ph, o: o}
	name := "rep"
	if traced {
		name = "rep.traced"
	}
	// Each repetition starts from a collected heap, outside the timed
	// phases, so the previous one's garbage is not charged to its set-up.
	runtime.GC()
	r.start = time.Now()
	r.root = ph.begin(name, 0)

	id := ph.begin("build", r.root)
	cfg := cluster.Config{Clients: w.clients, Servers: w.servers, DAFS: !w.nfs, NFSAll: w.nfs, MPI: w.strided}
	if traced {
		cfg.Tracer = trace.New
		cfg.Metrics = metrics.Installer(0) // registry only: sampling would add kernel events
	}
	r.c = cluster.New(cfg)
	o.clusterNew = ph.end(id)
	defer r.c.K.Shutdown()

	id = ph.begin("prefill", r.root)
	if err := prefill(r.c.Stores, w, in); err != nil {
		return nil, err
	}
	o.prefill = ph.end(id)

	r.ready = sim.NewWaitGroup(r.c.K, w.clients)
	r.connectID = ph.begin("connect", r.root)
	if err := r.c.SpawnClients(r.client); err != nil {
		return nil, fmt.Errorf("%s: simulation: %w", w.name, err)
	}
	o.mod.Events = int64(r.c.K.Events())
	o.mod.Bytes = w.fileBytes() * int64(len(w.methods()))
	slices.Sort(o.lat)
	o.mod.P50 = percentile(o.lat, 50)
	o.mod.P90 = percentile(o.lat, 90)
	if traced {
		o.planes = readPlanes(r.c, r.pinned)
	}

	id = ph.begin("verify", r.root)
	bad := verifyStores(r.c, w, in)
	o.verify = ph.end(id)
	if bad > 0 {
		o.failed += min(bad, o.attempted)
	}
	o.wall = ph.end(r.root)
	return o, nil
}

// client is one closed-loop client: open, one warm-up call per method,
// the set-up barrier, then every timed call in the seeded order.
func (r *rep) client(p *sim.Proc, i int) {
	w := r.w
	files := r.open(p, i)
	r.opened++
	if r.opened == w.clients {
		r.o.connect = r.ph.end(r.connectID)
		r.warmID = r.ph.begin("warmup", r.root)
	}
	buf := make([]byte, w.chunk)
	order := r.in.order[i]
	for m, f := range files {
		r.call(p, f, w.methods()[m], i, order[0], buf, false)
	}
	r.arrive(p)
	for m, f := range files {
		for _, c := range order {
			r.call(p, f, w.methods()[m], i, c, buf, true)
		}
		if w.strided {
			r.c.World.Rank(i).Barrier(p) // phases do not overlap
		}
	}
	r.finish(p)
	for _, f := range files {
		if f != nil && f.Close(p) != nil {
			r.o.failed++
		}
	}
}

// open dials or mounts every server and opens one file per method. A file
// that fails to open is nil, and every call on it counts as failed; a rank
// missing from a collective leaves the others parked, which the kernel
// reports as a deadlock.
func (r *rep) open(p *sim.Proc, i int) []*mpiio.File {
	w := r.w
	files := make([]*mpiio.File, len(w.methods()))
	var drv mpiio.Driver
	if w.nfs {
		mounts, err := r.c.MountNFSAll(p, i, nil)
		if err != nil {
			return files
		}
		drv = mpiio.NewStripedNFSDriver(mounts, w.striping())
	} else {
		pool, err := r.c.DialDAFSAll(p, i, nil)
		if err != nil {
			return files
		}
		drv = mpiio.NewStripedDAFSDriver(pool, w.striping())
	}
	for m, meth := range w.methods() {
		mode := mpiio.ModeRdOnly
		if w.write {
			mode = mpiio.ModeWrOnly
		}
		var rank *mpi.Rank
		if w.strided {
			mode = mpiio.ModeRdWr | mpiio.ModeCreate
			rank = r.c.World.Rank(i)
		}
		f, err := mpiio.Open(p, rank, drv, w.fileFor(meth), mode, &mpiio.Hints{NoBatch: meth == perSeg})
		if err != nil {
			continue
		}
		if w.strided {
			stride := int64(w.clients) * blockSize
			blocks := w.fileBytes() / stride
			if err := f.SetView(int64(i)*blockSize, mpiio.Vector(blocks, blockSize, stride)); err != nil {
				continue
			}
		}
		files[m] = f
	}
	return files
}

// call issues client i's call c and checks it: a write must report every
// byte, a read must return exactly the seeded pattern.
func (r *rep) call(p *sim.Proc, f *mpiio.File, m method, i, c int, buf []byte, timed bool) {
	w := r.w
	r.o.attempted++
	if f == nil {
		r.o.failed++
		return
	}
	if w.write {
		w.fill(r.in, buf, i, c)
	}
	t0 := p.Now()
	var n int
	var err error
	switch {
	case m == twoPhase:
		n, err = f.WriteAtAll(p, int64(c)*w.chunk, buf)
	case w.write:
		n, err = f.WriteAt(p, int64(c)*w.chunk, buf)
	default:
		n, err = f.ReadAt(p, int64(c)*w.chunk, buf)
	}
	if timed {
		r.o.lat = append(r.o.lat, int64(p.Now()-t0))
	}
	if err != nil || n != len(buf) || (!w.write && !r.readBack(buf, i, c)) {
		r.o.failed++
	}
}

func (r *rep) readBack(buf []byte, i, c int) bool {
	var pos int64
	for _, s := range r.w.segments(i, c) {
		if !bytes.Equal(buf[pos:pos+s.Len], r.in.at(s.Off, s.Len)) {
			return false
		}
		pos += s.Len
	}
	return true
}

// arrive is the set-up barrier. The last client to arrive ends set-up,
// forces a GC to read the live heap (outside both timed phases), and
// starts the measured I/O phase at the barrier's release instant.
func (r *rep) arrive(p *sim.Proc) {
	r.arrived++
	if r.arrived == r.w.clients {
		r.ph.end(r.warmID)
		r.o.setup = time.Since(r.start)
		if r.c.Metrics != nil {
			r.pinned = sumMetric(r.c.Metrics, "via.nic.", ".pinned_regions")
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		r.o.liveHeap = ms.HeapAlloc
		r.simStart = p.Now()
		r.ioEvents = r.c.K.Events()
		r.ioID = r.ph.begin("io", r.root)
	}
	r.ready.Done()
	r.ready.Wait(p)
}

// finish records the end of the measured phase; the last client to call
// it, in simulated and therefore host order, sets both ends.
func (r *rep) finish(p *sim.Proc) {
	if d := int64(p.Now() - r.simStart); d > r.o.mod.Elapsed {
		r.o.mod.Elapsed = d
	}
	r.o.io = r.ph.end(r.ioID)
	r.o.ioEvents = r.c.K.Events() - r.ioEvents
}

// stripes calls fn for every stripe of a dense logical file of n bytes:
// its server, its offset in that server's object, and its logical extent.
func stripes(w workload, n int64, fn func(srv int, objOff, off, length int64) bool) bool {
	for k := int64(0); k*stripeSize < n; k++ {
		srv := int(k % int64(w.servers))
		row := k / int64(w.servers)
		if !fn(srv, row*stripeSize, k*stripeSize, min(stripeSize, n-k*stripeSize)) {
			return false
		}
	}
	return true
}

// prefill creates each server's stripe objects directly in its store, in
// zero simulated time: full of the seeded pattern for read workloads,
// empty for contiguous writes, which then grow them by appends. The
// strided files start at their final size, zero-filled, as T17's full
// warm-up pass leaves them, so the measured strided phase overwrites in
// place.
func prefill(stores []*storage.Store, w workload, in *inputs) error {
	sizes := w.striping().ObjectSizes(w.fileBytes())
	for _, m := range w.methods() {
		objs := make([]*storage.File, w.servers)
		for s := range objs {
			f, err := stores[s].Create(w.fileFor(m))
			if err != nil {
				return fmt.Errorf("prefill: %w", err)
			}
			objs[s] = f
			if w.strided {
				f.Truncate(sizes[s])
			}
		}
		if !w.write {
			stripes(w, w.fileBytes(), func(srv int, objOff, off, n int64) bool {
				objs[srv].WriteAt(in.at(off, n), objOff)
				return true
			})
		}
	}
	return nil
}

// verifyStores reads every server's stripe objects back through storage
// and compares them with the seeded pattern. It returns the number of
// stripes that are missing, mis-sized or wrong.
func verifyStores(c *cluster.Cluster, w workload, in *inputs) int {
	bad := 0
	got := make([]byte, stripeSize)
	sizes := w.striping().ObjectSizes(w.fileBytes())
	for _, m := range w.methods() {
		objs := make([]*storage.File, w.servers)
		for s := range objs {
			f, err := c.Stores[s].Lookup(w.fileFor(m))
			if err != nil || f.Size() != sizes[s] {
				bad++
				continue
			}
			objs[s] = f
		}
		stripes(w, w.fileBytes(), func(srv int, objOff, off, n int64) bool {
			if objs[srv] == nil {
				return true
			}
			k := objs[srv].ReadAt(got[:n], objOff)
			if int64(k) != n || !bytes.Equal(got[:n], in.at(off, n)) {
				bad++
			}
			return true
		})
	}
	return bad
}
