package exp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"hybridmem/internal/config"
	"hybridmem/internal/design"
	"hybridmem/internal/sim"
	"hybridmem/internal/telemetry"
	"hybridmem/internal/trace"
	"hybridmem/internal/workload"
)

// TelemetryOptions configures epoch sampling for the Series-returning
// run methods below. The zero value enables sampling at the telemetry
// package defaults.
//
// Telemetry is passive: the headline Result of a sampled run is
// identical to the memoized/stored path's result (the engine is
// deterministic), so attaching options never changes what a sweep or
// figure reports. Sampled runs always execute the engine — they bypass
// the memo and the persistent store, like RunTrace — because a recalled
// result has no series to attach.
type TelemetryOptions struct {
	// WindowInstr is the epoch length in retired instructions; <= 0
	// means telemetry.DefaultWindowInstr.
	WindowInstr uint64
	// MaxEpochs bounds each run's epoch ring; <= 0 means
	// telemetry.DefaultMaxEpochs.
	MaxEpochs int
	// OnEpoch, when non-nil, streams each epoch as it closes, tagged
	// with the index of the run within the call's spec slice (0 for
	// single-run methods). It is called from worker goroutines; the
	// callback must be safe for concurrent use.
	OnEpoch func(run int, e telemetry.Epoch)
	// OnSeries, when non-nil, receives each run's settled series as
	// that run finishes, tagged like OnEpoch. Like OnEpoch it is called
	// from worker goroutines and must be safe for concurrent use.
	OnSeries func(run int, ser *telemetry.Series)
}

// sampler builds one run's sampler from the options; nil options yield
// a default-configured sampler (the Series methods are only called
// when telemetry was requested).
func (t *TelemetryOptions) sampler(run int) *telemetry.Sampler {
	var o telemetry.Options
	if t != nil {
		o.WindowInstr = t.WindowInstr
		o.MaxEpochs = t.MaxEpochs
		if t.OnEpoch != nil {
			cb := t.OnEpoch
			o.OnEpoch = func(e telemetry.Epoch) { cb(run, e) }
		}
	}
	return telemetry.New(o)
}

// ResultSeriesErr runs one workload on one design at an NM ratio with
// epoch sampling, returning the result and its telemetry series. The
// runner's Telemetry field supplies the window knobs (nil means
// defaults). Unlike ResultErr the engine always executes — see
// TelemetryOptions — but the returned Result is identical to what
// ResultErr returns for the same run.
func (r *Runner) ResultSeriesErr(wl workload.Spec, designName string, ratio16 int) (sim.Result, *telemetry.Series, error) {
	return r.resultSeries(wl, designName, ratio16, 0, nil)
}

// resultSeries is ResultSeriesErr for run index run on a worker's reuse
// slot; a nil slot builds fresh.
func (r *Runner) resultSeries(wl workload.Spec, designName string, ratio16 int, run int, slot *runSlot) (res sim.Result, ser *telemetry.Series, err error) {
	spec, err := design.Parse(designName)
	if err != nil {
		return sim.Result{}, nil, err
	}
	if !spec.Info.NeedsNM {
		ratio16 = 1 // no NM: one run serves all ratios
	}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("exp: sampled run %s/%s: %v", wl.Name, designName, p)
		}
	}()
	smp := r.Telemetry.sampler(run)
	if res, err = r.simulate(slot, spec, wl, r.system(ratio16), smp); err != nil {
		return sim.Result{}, nil, err
	}
	ser = smp.Series()
	if r.Telemetry != nil && r.Telemetry.OnSeries != nil {
		r.Telemetry.OnSeries(run, ser)
	}
	return res, ser, nil
}

// ResultsParallelSeries evaluates the given runs across the runner's
// worker pool with epoch sampling, returning results, one series per
// run, and per-run errors joined as in ResultsParallelProgress. The
// progress callback behaves exactly as there; the Telemetry OnEpoch
// hook (if set) streams epochs live, tagged with each run's index in
// specs.
func (r *Runner) ResultsParallelSeries(ctx context.Context, specs []RunSpec, progress func(done, total int)) ([]sim.Result, []*telemetry.Series, error) {
	out := make([]sim.Result, len(specs))
	series := make([]*telemetry.Series, len(specs))
	var mu sync.Mutex
	finished := 0
	errs := r.parallelSpecs(ctx, specs, func(i int, slot *runSlot) error {
		var err error
		out[i], series[i], err = r.resultSeries(specs[i].Workload, specs[i].Design, specs[i].Ratio16, i, slot)
		if progress != nil {
			mu.Lock()
			finished++
			progress(finished, len(specs))
			mu.Unlock()
		}
		return err
	})
	return out, series, errors.Join(errs...)
}

// RunTraceSeries is RunTrace with epoch sampling: it replays a
// captured trace with a sampler attached and returns the series
// alongside the result. All RunTrace semantics (streaming, validation,
// no memoization) hold; the Result is identical to RunTrace's.
func (r *Runner) RunTraceSeries(name string, rd io.Reader, designName string, ratio16, mlp int) (res sim.Result, ser *telemetry.Series, err error) {
	spec, err := design.Parse(designName)
	if err != nil {
		return sim.Result{}, nil, err
	}
	if mlp < 1 {
		return sim.Result{}, nil, fmt.Errorf("exp: trace %s: mlp must be >= 1, got %d", name, mlp)
	}
	sr, err := trace.NewStreamReader(rd, config.Cores, r.TraceWindow)
	if err != nil {
		return sim.Result{}, nil, err
	}
	if err := sr.Prime(); err != nil {
		return sim.Result{}, nil, err
	}
	if sr.Records() == 0 {
		return sim.Result{}, nil, fmt.Errorf("exp: trace %s: no records", name)
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
		return sim.Result{}, nil, err
	}
	smp := r.Telemetry.sampler(0)
	r.SimCounter.Inc()
	res = sim.RunSourcesSampled(name, srcs, mlp, ms, nm, fm, sys, smp)
	if serr := sr.Err(); serr != nil {
		return sim.Result{}, nil, serr
	}
	ser = smp.Series()
	if r.Telemetry != nil && r.Telemetry.OnSeries != nil {
		r.Telemetry.OnSeries(0, ser)
	}
	return res, ser, nil
}
