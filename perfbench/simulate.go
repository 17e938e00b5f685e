package main

import (
	"fmt"
	"sync"
	"time"

	"hybridmem"
	"hybridmem/internal/api"
	"hybridmem/internal/config"
	"hybridmem/internal/design"
	"hybridmem/internal/memtypes"
	"hybridmem/internal/sim"
	"hybridmem/internal/workload"
)

// system is the scaled system of a run at the paper's default scale and
// a 1:16 NM:FM ratio, the configuration every workload uses.
func system(instr, seed uint64) config.System {
	sys := config.Scaled(config.DefaultScale, 1)
	sys.InstrPerCore = instr
	sys.Seed = seed
	return sys
}

// streams returns one generated source per core, as sim.Run makes them.
func streams(wl workload.Spec, sys config.System) []sim.Source {
	srcs := make([]sim.Source, config.Cores)
	for i := range srcs {
		srcs[i] = workload.NewStream(wl, i, sys.Scale, sys.InstrPerCore, sys.Seed)
	}
	return srcs
}

// simulate builds a design and runs srcs on it, the same calls the
// experiment runner makes. With a recorder it opens a "run" span (trace
// id trace, under span parent) holding the build and the run loop, and
// times every generator batch and every design Access inside the run
// loop.
func simulate(rec *recorder, trace, parent int, designName, name string, srcs []sim.Source, mlp int, sys config.System) (sim.Result, error) {
	spec, err := design.Parse(designName)
	if err != nil {
		return sim.Result{}, err
	}
	root := rec.begin(trace, parent, "run")
	defer rec.end(root)
	b := rec.begin(trace, root, "design.Spec.Build")
	ms, nm, fm, err := spec.Build(sys)
	rec.end(b)
	if err != nil {
		return sim.Result{}, err
	}
	if rec == nil {
		return sim.RunSources(name, srcs, mlp, ms, nm, fm, sys), nil
	}
	gen, acc := &callTimer{rec: rec}, &callTimer{rec: rec}
	for i, s := range srcs {
		if bs, ok := s.(sim.BatchSource); ok {
			srcs[i] = timedBatchSource{s, bs, gen}
		}
	}
	l := rec.begin(trace, root, "sim.RunSources")
	res := sim.RunSources(name, srcs, mlp, timedMS{ms, acc}, nm, fm, sys)
	rec.end(l)
	gen.flush(trace, l, "workload.Stream.NextBatch")
	acc.flush(trace, l, "access."+spec.Info.Name)
	return res, nil
}

// callTimer sums the time of many short calls for one aggregate span.
// Only the run loop's goroutine touches it.
type callTimer struct {
	rec               *recorder
	first, last, busy int64
	calls             int64
}

func (t *callTimer) start() int64 { return t.rec.now() }

func (t *callTimer) stop(t0 int64) {
	t1 := t.rec.now()
	if t.calls == 0 {
		t.first = t0
	}
	t.last = t1
	t.busy += t1 - t0
	t.calls++
}

func (t *callTimer) flush(trace, parent int, name string) {
	t.rec.addAggregate(trace, parent, name, t.first, t.last, t.busy, t.calls)
}

type timedBatchSource struct {
	sim.Source
	bs sim.BatchSource
	t  *callTimer
}

func (s timedBatchSource) NextBatch(dst []memtypes.Rec) int {
	t0 := s.t.start()
	n := s.bs.NextBatch(dst)
	s.t.stop(t0)
	return n
}

type timedMS struct {
	memtypes.MemorySystem
	t *callTimer
}

func (m timedMS) Access(now memtypes.Tick, addr memtypes.Addr, write bool) memtypes.Tick {
	t0 := m.t.start()
	done := m.MemorySystem.Access(now, addr, write)
	m.t.stop(t0)
	return done
}

// checkResult enforces the conservation laws every design must obey.
func checkResult(r sim.Result) error {
	m := r.Mem
	switch {
	case m.ServedNM+m.ServedFM != m.Requests:
		return fmt.Errorf("%s/%s: ServedNM %d + ServedFM %d != Requests %d", r.Design, r.Workload, m.ServedNM, m.ServedFM, m.Requests)
	case m.UsedBytes > m.FetchedBytes:
		return fmt.Errorf("%s/%s: UsedBytes %d > FetchedBytes %d", r.Design, r.Workload, m.UsedBytes, m.FetchedBytes)
	case r.LLCMisses > m.Requests:
		return fmt.Errorf("%s/%s: LLCMisses %d > Requests %d", r.Design, r.Workload, r.LLCMisses, m.Requests)
	case r.Cycles == 0 || r.Instructions == 0:
		return fmt.Errorf("%s/%s: empty run", r.Design, r.Workload)
	}
	return nil
}

// samePublic reports whether a public API result carries exactly the
// wire fields of an internal one.
func samePublic(p hybridmem.Result, sr sim.Result) bool {
	return api.Result(p) == api.FromSim(sr)
}

// parallel runs fn(i) for i in [0, n) on the benchmark's workers.
func parallel(n int, fn func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// sweepRef simulates every (design, workload) pair of a sweep in its
// design-major order, checking each result's conservation laws. Run i
// is trace traceBase+i.
func sweepRef(rec *recorder, traceBase int, designs, wls []string, instr, seed uint64) ([]sim.Result, []error) {
	n := len(designs) * len(wls)
	res := make([]sim.Result, n)
	errs := make([]error, n)
	parallel(n, func(i int) {
		wl, _ := workload.ByName(wls[i%len(wls)])
		sys := system(instr, seed)
		r, err := simulate(rec, traceBase+i, -1, designs[i/len(wls)], wl.Name, streams(wl, sys), sim.MLPFor(wl), sys)
		if err == nil {
			err = checkResult(r)
		}
		res[i], errs[i] = r, err
	})
	return res, errs
}

func millis(d time.Duration) float64 { return float64(d) / 1e6 }
