// Package exp defines the paper's experiments: one function per table and
// figure of the evaluation (Figures 1-2, Table 1-2, Figures 11-18), shared
// by cmd/experiments and the benchmark harness. A Runner memoizes
// (workload, design, NM-ratio) runs so figures built from the same sweep
// (12, 13, 15-18) reuse results, and evaluates independent runs across a
// worker pool (see ResultsParallel and Sweep) so regenerating the
// evaluation scales with the machine's cores.
//
// Designs are resolved through the self-registering catalog in
// internal/design: the engine imports no internal/baselines package and
// holds no design list or build switch of its own — names parse to
// validated, buildable specs before any simulation state exists, and the
// registry's metadata drives the figure design lists below. (The sole
// organization dependency left is ablations.go reading Hybrid2's path
// counters through internal/core.)
package exp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"hybridmem/internal/cachesim"
	"hybridmem/internal/config"
	"hybridmem/internal/design"
	_ "hybridmem/internal/design/all" // link every built-in organization into the registry
	"hybridmem/internal/memtypes"
	"hybridmem/internal/obs"
	"hybridmem/internal/sim"
	"hybridmem/internal/store"
	"hybridmem/internal/telemetry"
	"hybridmem/internal/trace"
	"hybridmem/internal/workload"
)

// MainDesigns are the six designs of Figures 12-18, in the paper's order,
// straight from the registry.
var MainDesigns = design.Names(design.KindMain)

// ExtraDesigns are related-work designs from the paper's §2 that are not
// part of its evaluation figures but are implemented for completeness,
// straight from the registry.
var ExtraDesigns = design.Names(design.KindExtra)

// Runner executes and memoizes simulation runs.
type Runner struct {
	Scale        int
	InstrPerCore uint64
	Seed         uint64
	// Prefetch enables the LLC next-line prefetcher for all runs.
	Prefetch bool
	// Workload subset; nil means all 30.
	Subset []workload.Spec
	// Parallelism bounds the workers used by ResultsParallel and Sweep;
	// <= 0 means GOMAXPROCS. 1 forces strictly serial execution.
	Parallelism int
	// TraceWindow bounds the per-core lookahead of streaming trace
	// replay, in records; <= 0 means trace.DefaultWindow.
	TraceWindow int
	// Store, when non-nil, persists every completed run (and recalls
	// past ones) through the shared content-addressed result store: a
	// run found on disk is decoded instead of simulated, and runs this
	// runner executes become disk hits for every later runner — across
	// restarts and across processes sharing the directory. Keys cover
	// every knob above (see store.RunKey), so a store can safely back
	// runners with different configurations.
	Store *store.Store
	// MemoEntries bounds the in-memory memo cache, which previously
	// grew without limit over a long-lived server or coordinator
	// process; <= 0 means 4096 entries. Evicted runs re-resolve through
	// the store's disk tier (or re-simulate) with identical results.
	MemoEntries int
	// SimCounter, when non-nil, is incremented for every simulation the
	// runner actually executes — not for memo or store hits — so
	// serving layers can assert and report how much engine work a
	// request really cost.
	SimCounter *obs.Counter
	// Telemetry supplies the epoch-sampling knobs of the Series-
	// returning run methods (ResultSeriesErr, ResultsParallelSeries,
	// RunTraceSeries); nil means package defaults. It is ignored by the
	// plain run methods: sampling only happens when a Series method is
	// called, and is passive even then — see TelemetryOptions.
	Telemetry *TelemetryOptions

	mu     sync.Mutex
	memo   *store.LRU[memoVal]
	flight *store.Flight[memoVal]
	// resets counts the runs that reset a worker's organization instead
	// of building one. Only tests read it.
	resets atomic.Int64
}

// memoVal is one settled run: its result or its error, memoized
// together exactly as the old per-key future retained them.
type memoVal struct {
	res sim.Result
	err error
}

// defaultMemoEntries bounds the memo when MemoEntries is unset: large
// enough for the full evaluation's cross product, small enough that a
// long-lived server can never grow without limit.
const defaultMemoEntries = 4096

// NewRunner returns a runner at the default scale and instruction budget.
func NewRunner() *Runner {
	return &Runner{Scale: config.DefaultScale, InstrPerCore: 1_000_000, Seed: 1}
}

// NewQuickRunner returns a reduced-cost runner (shorter streams, one
// third of the workloads) for smoke runs and benchmarks.
func NewQuickRunner() *Runner {
	r := NewRunner()
	r.InstrPerCore = 250_000
	all := workload.Specs()
	for i := 0; i < len(all); i += 3 {
		r.Subset = append(r.Subset, all[i])
	}
	return r
}

// Workloads returns the workloads this runner sweeps.
func (r *Runner) Workloads() []workload.Spec {
	if r.Subset != nil {
		return r.Subset
	}
	return workload.Specs()
}

// workers resolves the effective worker count.
func (r *Runner) workers() int {
	if r.Parallelism > 0 {
		return r.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// clone returns a runner with the same knobs but its own memo cache —
// used by studies that vary a knob (seed, prefetcher) per sub-sweep.
// The persistent store and the simulation counter are shared: store
// keys cover every knob, so sub-sweeps reuse and contribute entries
// safely.
func (r *Runner) clone() *Runner {
	return &Runner{
		Scale:        r.Scale,
		InstrPerCore: r.InstrPerCore,
		Seed:         r.Seed,
		Prefetch:     r.Prefetch,
		Subset:       r.Subset,
		Parallelism:  r.Parallelism,
		Store:        r.Store,
		MemoEntries:  r.MemoEntries,
		SimCounter:   r.SimCounter,
		Telemetry:    r.Telemetry,
	}
}

// system resolves the scaled system for an NM:FM ratio of ratio16:16.
func (r *Runner) system(ratio16 int) config.System {
	sys := config.Scaled(r.Scale, ratio16)
	sys.InstrPerCore = r.InstrPerCore
	sys.Seed = r.Seed
	sys.NextLinePrefetch = r.Prefetch
	return sys
}

// RunSpec identifies one independent simulation run of a sweep.
type RunSpec struct {
	Workload workload.Spec
	Design   string
	Ratio16  int
}

// memoState returns the runner's memo cache and singleflight group,
// creating them on first use.
func (r *Runner) memoState() (*store.LRU[memoVal], *store.Flight[memoVal]) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.memo == nil {
		n := r.MemoEntries
		if n <= 0 {
			n = defaultMemoEntries
		}
		r.memo = store.NewLRU[memoVal](n, 0, nil)
		r.flight = store.NewFlight[memoVal]()
	}
	return r.memo, r.flight
}

// MemoStats snapshots the in-memory memo cache's counters — test and
// metrics visibility into the bounded tier.
func (r *Runner) MemoStats() store.LRUStats {
	memo, _ := r.memoState()
	return memo.Stats()
}

// runKey is the canonical store key of one (already ratio-normalized)
// run of this runner.
func (r *Runner) runKey(wl workload.Spec, designName string, ratio16 int) string {
	return store.RunKey(designName, wl.Name, ratio16, r.Scale, r.InstrPerCore, r.Seed, r.Prefetch)
}

// ResultErr runs (or recalls) one workload on one design at an NM ratio.
// The design name resolves through the registry before anything is
// cached or simulated, so malformed names and out-of-range parameters
// fail here as parse errors. Duplicate in-flight runs coalesce:
// concurrent callers of the same (workload, design, ratio) block on one
// simulation and share its result. With a Store attached, a run found
// (and verified) in the store's disk tier is decoded instead of
// simulated, and completed simulations are persisted for every future
// runner sharing the store.
func (r *Runner) ResultErr(wl workload.Spec, designName string, ratio16 int) (sim.Result, error) {
	return r.result(wl, designName, ratio16, nil)
}

// result is ResultErr on a worker's reuse slot; a nil slot builds fresh.
func (r *Runner) result(wl workload.Spec, designName string, ratio16 int, slot *runSlot) (sim.Result, error) {
	spec, err := design.Parse(designName)
	if err != nil {
		return sim.Result{}, err
	}
	if !spec.Info.NeedsNM {
		ratio16 = 1 // no NM: one run serves all ratios
	}
	key := r.runKey(wl, designName, ratio16)
	memo, flight := r.memoState()
	if v, ok := memo.Get(key); ok {
		return v.res, v.err
	}
	v, _, _ := flight.Do(key, func() (v memoVal, _ error) {
		// Losing a memo race is cheaper than re-simulating: re-check
		// from inside the slot before touching disk or the engine.
		if v, ok := memo.Peek(key); ok {
			return v, nil
		}
		if data, ok := r.Store.GetDisk(key); ok {
			var res sim.Result
			if err := json.Unmarshal(data, &res); err == nil {
				return memoVal{res: res}, nil
			}
			// Undecodable (a record written before a layout change that
			// forgot to bump the engine version): re-simulate.
		}
		// A panic here (e.g. from the simulation itself) must neither
		// kill a worker goroutine nor poison the memo into replaying a
		// zero result: settle it as this key's error. Construction-time
		// panics are already converted to errors by Spec.Build.
		defer func() {
			if p := recover(); p != nil {
				v = memoVal{err: fmt.Errorf("exp: run %s/%s: %v", wl.Name, designName, p)}
			}
		}()
		res, err := r.simulate(slot, spec, wl, r.system(ratio16), nil)
		if err != nil {
			return memoVal{err: err}, nil
		}
		if r.Store != nil {
			if data, err := json.Marshal(res); err == nil {
				r.Store.PutDisk(key, data)
			}
		}
		return memoVal{res: res}, nil
	})
	memo.Put(key, v)
	return v.res, v.err
}

// ResultErrCtx is ResultErr with cancellation: a canceled context fails
// fast with ctx.Err() before any simulation state is built. A run already
// in flight on another goroutine is not interrupted — simulations are
// short — but no new work starts after cancellation.
func (r *Runner) ResultErrCtx(ctx context.Context, wl workload.Spec, designName string, ratio16 int) (sim.Result, error) {
	if err := ctx.Err(); err != nil {
		return sim.Result{}, err
	}
	return r.ResultErr(wl, designName, ratio16)
}

// Result is the panicking convenience form of ResultErr, for call sites
// whose design names are statically known to be well-formed.
func (r *Runner) Result(wl workload.Spec, designName string, ratio16 int) sim.Result {
	res, err := r.ResultErr(wl, designName, ratio16)
	if err != nil {
		panic(err)
	}
	return res
}

// runSlot is one worker's reusable run state: the organization and the
// LLC of the worker's last run. A worker of parallelForEach owns one
// slot for as long as it runs, so no state outlives the worker, and a
// run empties the slot until it completes, so a run that panics leaves
// the next one to build fresh.
type runSlot struct {
	ms  memtypes.MemorySystem
	llc *cachesim.Cache
}

// simulate builds spec for sys and runs wl on it with smp attached (nil
// for none). With a slot, it resets the slot's organization instead of
// building one when spec's family accepts it (see design.Spec.Rebuild)
// and reuses the slot's LLC; results are identical either way.
func (r *Runner) simulate(slot *runSlot, spec design.Spec, wl workload.Spec, sys config.System, smp *telemetry.Sampler) (sim.Result, error) {
	var prev memtypes.MemorySystem
	var llc *cachesim.Cache
	if slot != nil {
		prev, llc = slot.ms, slot.llc
		*slot = runSlot{}
	}
	ms, nm, fm, reused, err := spec.Rebuild(prev, sys)
	if err != nil {
		return sim.Result{}, err
	}
	if reused {
		r.resets.Add(1)
	}
	if llc == nil {
		llc = new(cachesim.Cache)
	}
	r.SimCounter.Inc()
	res := sim.RunOn(llc, wl, ms, nm, fm, sys, smp)
	if slot != nil {
		slot.llc = llc
		if spec.Info.Reset != nil {
			slot.ms = ms
		}
	}
	return res, nil
}

// parallelFor runs fn(i) for every i in [0, n) across the runner's
// worker pool without a cancellation point; see parallelForCtx.
func (r *Runner) parallelFor(n int, fn func(i int) error) error {
	return r.parallelForCtx(context.Background(), n, fn)
}

// parallelForCtx runs fn(i) for every i in [0, n) across the runner's
// worker pool, serially when one worker suffices. Errors are joined in
// index order; one failing index never aborts the others, but a canceled
// context stops promptly: each worker checks the context before starting
// an index, so indices not yet started are never run and settle as
// ctx.Err(). A panic inside fn settles as that index's error instead of
// escaping on a worker goroutine, where no caller's recover could catch
// it.
func (r *Runner) parallelForCtx(ctx context.Context, n int, fn func(i int) error) error {
	return errors.Join(r.parallelForEach(ctx, n, nil, func(i int, _ *runSlot) error { return fn(i) })...)
}

// parallelSpecs is parallelForCtx over a batch of runs, dispatched by
// design (see runQueue), with one error slot per run (nil on success)
// instead of a joined error, so callers that need per-run granularity —
// the cluster shard executor, the DSE evaluator — can tell exactly which
// runs failed. fn gets the reuse slot of the worker it runs on.
func (r *Runner) parallelSpecs(ctx context.Context, specs []RunSpec, fn func(i int, slot *runSlot) error) []error {
	return r.parallelForEach(ctx, len(specs), func(i int) string { return specs[i].Design }, fn)
}

// parallelForEach is the per-index core of parallelForCtx and
// parallelSpecs. With a nil designOf, workers take indices in order;
// otherwise designOf(i) names the design of index i and workers take
// indices as runQueue describes. Each worker, or the serial loop, hands
// fn its one runSlot. Cancellation and panic handling are as described
// on parallelForCtx.
func (r *Runner) parallelForEach(ctx context.Context, n int, designOf func(i int) string, fn func(i int, slot *runSlot) error) []error {
	call := func(i int, slot *runSlot) (err error) {
		if err := ctx.Err(); err != nil {
			return err
		}
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("exp: parallel run %d: %v", i, p)
			}
		}()
		return fn(i, slot)
	}
	errs := make([]error, n)
	workers := min(r.workers(), n)
	if workers <= 1 {
		var slot runSlot
		for i := 0; i < n; i++ {
			errs[i] = call(i, &slot)
		}
		return errs
	}
	q := newRunQueue(n, designOf)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var slot runSlot
			last := -1
			for {
				i, ok := q.next(&last)
				if !ok {
					return
				}
				errs[i] = call(i, &slot)
			}
		}()
	}
	wg.Wait()
	return errs
}

// runQueue hands a batch's indices to workers with design affinity. Runs
// of one design share an initial layout (cow.Shared builds it at the
// design's first run and forks it for the rest), so a worker that frees
// up takes, in order:
//  1. the next queued run of the design it just ran;
//  2. otherwise the first run of a design no worker has started;
//  3. otherwise any queued run, so a batch of one design still uses
//     every worker.
//
// Workers then build different designs' layouts in parallel instead of
// one waiting on the other's build. Results land in input order
// whatever order the runs execute in.
type runQueue struct {
	mu sync.Mutex
	// designs holds each design's queued indices in input order, designs
	// ordered by their first run.
	designs [][]int
	// started counts the designs, a prefix of designs, that some worker
	// has started.
	started int
}

func newRunQueue(n int, designOf func(i int) string) *runQueue {
	q := &runQueue{}
	id := map[string]int{}
	for i := range n {
		name := ""
		if designOf != nil {
			name = designOf(i)
		}
		d, ok := id[name]
		if !ok {
			d = len(q.designs)
			id[name] = d
			q.designs = append(q.designs, nil)
		}
		q.designs[d] = append(q.designs[d], i)
	}
	return q
}

// next returns the index a worker should run after one of design *last
// (-1 before its first run) and records the index's design in *last; ok
// is false once every index has been handed out.
func (q *runQueue) next(last *int) (i int, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	d := *last
	switch {
	case d >= 0 && len(q.designs[d]) > 0:
	case q.started < len(q.designs):
		d = q.started
		q.started++
	default:
		d = slices.IndexFunc(q.designs, func(ix []int) bool { return len(ix) > 0 })
		if d < 0 {
			return 0, false
		}
	}
	i, q.designs[d] = q.designs[d][0], q.designs[d][1:]
	*last = d
	return i, true
}

// ResultsParallel evaluates the given runs across the runner's worker
// pool and returns their results in input order. Results are memoized
// exactly like Result, so a parallel sweep followed by serial reads (the
// figure generators' pattern) recomputes nothing. Execution is
// deterministic per run — each simulation is self-contained — so results
// are bit-identical to a serial evaluation regardless of scheduling. Runs
// whose design name is malformed report errors (joined, one per bad run)
// without aborting the rest of the sweep; their result slots are zero.
func (r *Runner) ResultsParallel(specs []RunSpec) ([]sim.Result, error) {
	return r.ResultsParallelCtx(context.Background(), specs)
}

// ResultsParallelCtx is ResultsParallel with cancellation: when ctx is
// canceled, queued runs are abandoned promptly (their error slots settle
// as ctx.Err()) while runs already executing finish and land in the memo
// cache as usual.
func (r *Runner) ResultsParallelCtx(ctx context.Context, specs []RunSpec) ([]sim.Result, error) {
	return r.ResultsParallelProgress(ctx, specs, nil)
}

// ResultsParallelProgress is ResultsParallelCtx with streaming progress:
// when progress is non-nil it is called once per settled run with the
// count of runs finished so far and the total — the hook long-lived
// servers use to report sweep progress to clients. Calls are serialized
// and done is strictly increasing, but the order in which indices settle
// is scheduling-dependent; on cancellation, abandoned runs never report.
func (r *Runner) ResultsParallelProgress(ctx context.Context, specs []RunSpec, progress func(done, total int)) ([]sim.Result, error) {
	out := make([]sim.Result, len(specs))
	var mu sync.Mutex
	finished := 0
	errs := r.parallelSpecs(ctx, specs, func(i int, slot *runSlot) error {
		var err error
		out[i], err = r.result(specs[i].Workload, specs[i].Design, specs[i].Ratio16, slot)
		if progress != nil {
			mu.Lock()
			finished++
			progress(finished, len(specs))
			mu.Unlock()
		}
		return err
	})
	return out, errors.Join(errs...)
}

// ResultsParallelEach evaluates the given runs across the runner's
// worker pool and returns results and errors in input order, one error
// slot per run (nil on success) — no joining, so executors that relay
// per-run outcomes (the cluster shard executor, the DSE evaluator) keep
// exact run-to-error attribution. Memoization, determinism and
// cancellation behave exactly as in ResultsParallelCtx; a run abandoned
// by cancellation settles its slot as ctx.Err() with a zero result.
func (r *Runner) ResultsParallelEach(ctx context.Context, specs []RunSpec) ([]sim.Result, []error) {
	out := make([]sim.Result, len(specs))
	errs := r.parallelSpecs(ctx, specs, func(i int, slot *runSlot) error {
		var err error
		out[i], err = r.result(specs[i].Workload, specs[i].Design, specs[i].Ratio16, slot)
		return err
	})
	return out, errs
}

// SweepSpecs pre-enumerates the (workload × design × ratio) cross
// product of a sweep over this runner's workloads, in deterministic
// design-major order.
func (r *Runner) SweepSpecs(designs []string, ratios []int) []RunSpec {
	wls := r.Workloads()
	specs := make([]RunSpec, 0, len(designs)*len(ratios)*len(wls))
	for _, d := range designs {
		for _, ratio := range ratios {
			for _, wl := range wls {
				specs = append(specs, RunSpec{Workload: wl, Design: d, Ratio16: ratio})
			}
		}
	}
	return specs
}

// SweepSpecsByName builds the design-major, workload-minor cross
// product for explicit name lists — the run order every consumer of the
// shared wire encoding (cmd/experiments -sweepjson, the serve layer)
// must agree on for sweep documents to be byte-identical. Unknown
// workload names error; design names are validated later, when the runs
// resolve through the registry.
func SweepSpecsByName(designs, workloadNames []string, ratio16 int) ([]RunSpec, error) {
	specs := make([]RunSpec, 0, len(designs)*len(workloadNames))
	for _, d := range designs {
		for _, name := range workloadNames {
			wl, ok := workload.ByName(name)
			if !ok {
				return nil, fmt.Errorf("exp: unknown workload %q", name)
			}
			specs = append(specs, RunSpec{Workload: wl, Design: d, Ratio16: ratio16})
		}
	}
	return specs, nil
}

// Sweep evaluates every (workload, design, ratio) combination in
// parallel, warming the memo cache so subsequent Result calls are free.
func (r *Runner) Sweep(designs []string, ratios []int) error {
	return r.SweepCtx(context.Background(), designs, ratios)
}

// SweepCtx is Sweep with cancellation: a canceled context abandons the
// queued remainder of the cross product promptly.
func (r *Runner) SweepCtx(ctx context.Context, designs []string, ratios []int) error {
	_, err := r.ResultsParallelCtx(ctx, r.SweepSpecs(designs, ratios))
	return err
}

// mustSweep pre-warms a figure generator's run set. The generators only
// sweep statically well-formed design names, so an error here is a bug.
func (r *Runner) mustSweep(designs []string, ratios []int) {
	if err := r.Sweep(designs, ratios); err != nil {
		panic(err)
	}
}

// withBaseline prepends the no-NM baseline to a design list: every
// speedup-reporting figure needs it as the normalization point.
func withBaseline(designs []string) []string {
	return append([]string{"Baseline"}, designs...)
}

// RunTrace replays a captured trace on a design at an NM ratio,
// streaming the records: the trace (any format internal/trace reads,
// auto-detected) is never materialized, so arbitrarily large captures
// replay in memory bounded by the runner's TraceWindow. mlp bounds
// per-core overlapped misses and must be >= 1. A trace with no records
// (empty or whitespace/comments only) is an error, not a zero-cycle
// result, as is a decode error or a core interleaving more skewed than
// the lookahead window. Trace runs are not memoized.
func (r *Runner) RunTrace(name string, rd io.Reader, designName string, ratio16, mlp int) (res sim.Result, err error) {
	spec, err := design.Parse(designName)
	if err != nil {
		return sim.Result{}, err
	}
	if mlp < 1 {
		return sim.Result{}, fmt.Errorf("exp: trace %s: mlp must be >= 1, got %d", name, mlp)
	}
	sr, err := trace.NewStreamReader(rd, config.Cores, r.TraceWindow)
	if err != nil {
		return sim.Result{}, err
	}
	// Fail fast on an empty or immediately malformed trace, before any
	// simulation state is built.
	if err := sr.Prime(); err != nil {
		return sim.Result{}, err
	}
	if sr.Records() == 0 {
		return sim.Result{}, fmt.Errorf("exp: trace %s: no records", name)
	}
	srcs := make([]sim.Source, config.Cores)
	for i := range srcs {
		srcs[i] = sr.Source(i)
	}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("exp: trace run %s/%s: %v", name, designName, p)
		}
	}()
	sys := r.system(ratio16)
	ms, nm, fm, err := spec.Build(sys)
	if err != nil {
		return sim.Result{}, err
	}
	r.SimCounter.Inc()
	res = sim.RunSources(name, srcs, mlp, ms, nm, fm, sys)
	// Per-core sources signal stream problems only as an early end of
	// records; surface the real cause now that replay has drained.
	if serr := sr.Err(); serr != nil {
		return sim.Result{}, serr
	}
	return res, nil
}

// Speedup returns design cycles relative to the no-NM baseline, or 0 if
// either run completed no cycles (the ratio would be meaningless).
func (r *Runner) Speedup(wl workload.Spec, designName string, ratio16 int) float64 {
	base := r.Result(wl, "Baseline", 1)
	res := r.Result(wl, designName, ratio16)
	if res.Cycles == 0 || base.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(res.Cycles)
}

// ClassSpeedups collects per-workload speedups of one MPKI class.
func (r *Runner) ClassSpeedups(c workload.Class, designName string, ratio16 int) []float64 {
	var out []float64
	for _, wl := range r.Workloads() {
		if wl.Class == c {
			out = append(out, r.Speedup(wl, designName, ratio16))
		}
	}
	return out
}

// AllSpeedups collects per-workload speedups across all classes.
func (r *Runner) AllSpeedups(designName string, ratio16 int) []float64 {
	var out []float64
	for _, wl := range r.Workloads() {
		out = append(out, r.Speedup(wl, designName, ratio16))
	}
	return out
}
