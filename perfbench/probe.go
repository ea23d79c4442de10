package main

import (
	"fmt"
	"time"

	"dafsio/internal/aggregate"
	"dafsio/internal/storage"
)

// probes is the host time of one layer's share of a workload, measured by
// re-issuing the workload's exact request stream straight against that
// layer's public functions, outside the simulator and so free of kernel
// interleaving.
type probes struct {
	storage, mapping, plan time.Duration
}

// stream calls fn for every call of one measured I/O phase in the order
// the closed-loop clients reach them: method by method, then call by
// call, then client by client.
func stream(w workload, in *inputs, fn func(m method, i, c int)) {
	for _, m := range w.methods() {
		for j := 0; j < w.calls(); j++ {
			for i := 0; i < w.clients; i++ {
				fn(m, i, in.order[i][j])
			}
		}
	}
}

// runProbes replays the stream through layout.Striping.Map, through the
// aggregate planner (only for the methods whose path uses it), and through
// storage.File.WriteAt/ReadAt on a fresh set of stores, prefilled as the
// repetition's are.
func runProbes(w workload, in *inputs) (probes, error) {
	var pr probes
	st := w.striping()

	var frags int
	t := time.Now()
	stream(w, in, func(m method, i, c int) {
		for _, s := range w.segments(i, c) {
			frags += len(st.Map(s.Off, s.Len))
		}
	})
	pr.mapping = time.Since(t)

	if w.strided {
		t = time.Now()
		stream(w, in, func(m method, i, c int) {
			if m == perSeg {
				return
			}
			segs := w.segments(i, c)
			if m == twoPhase {
				last := segs[len(segs)-1]
				aggregate.Domains(st, segs[0].Off, last.Off+last.Len, w.clients, true)
			}
			frags += len(aggregate.Gather(st, segs))
		})
		pr.plan = time.Since(t)
	}

	// The storage replay re-issues every fragment the striped drivers
	// send to a server, onto fresh stores prefilled as a repetition's are.
	type frag struct {
		m      method
		srv    int
		objOff int64
		off, n int64
	}
	var frs []frag
	stream(w, in, func(m method, i, c int) {
		for _, s := range w.segments(i, c) {
			for _, f := range st.Map(s.Off, s.Len) {
				frs = append(frs, frag{m, f.Server, f.Off, s.Off + f.BufOff, f.Len})
			}
		}
	})
	stores := make([]*storage.Store, w.servers)
	for s := range stores {
		stores[s] = storage.NewStore()
	}
	if err := prefill(stores, w, in); err != nil {
		return pr, err
	}
	objs := make(map[method][]*storage.File)
	for _, m := range w.methods() {
		objs[m] = make([]*storage.File, w.servers)
		for s, st := range stores {
			f, err := st.Lookup(w.fileFor(m))
			if err != nil {
				return pr, fmt.Errorf("probe: %w", err)
			}
			objs[m][s] = f
		}
	}
	buf := make([]byte, stripeSize)
	t = time.Now()
	for _, f := range frs {
		obj := objs[f.m][f.srv]
		if w.write {
			obj.WriteAt(in.at(f.off, f.n), f.objOff)
		} else {
			obj.ReadAt(buf[:f.n], f.objOff)
		}
	}
	pr.storage = time.Since(t)
	sink = frags
	return pr, nil
}

// sink keeps the probes' results live so the compiler cannot drop a call.
var sink int
