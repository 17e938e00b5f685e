package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"

	"hybridmem/internal/dse"
	"hybridmem/internal/obs"
	"hybridmem/internal/sim"
	"hybridmem/internal/workload"
)

// The dse-screen workload: a multi-fidelity dse.Search over seven
// families on four workloads, screening all 422 candidates at 3k
// instructions per core and promoting 16 to 30k. At these budgets design
// construction outweighs simulation for the near-memory-heavy families,
// so this workload measures construction. Candidates the builder
// rejects are search outcomes (infeasible points), not failures. One
// operation is one search round, as a user follows it through progress
// events.

// dseSetup warms the process with a small search over the same
// families and workloads.
func dseSetup(opts dse.Options) error {
	opts.Budget, opts.ScreenBudget = 8, 32
	_, err := dse.Search(context.Background(), opts)
	return err
}

// feasible counts the feasible points of a list.
func feasible(pts []dse.Point) int {
	n := 0
	for _, p := range pts {
		if !p.Infeasible {
			n++
		}
	}
	return n
}

// dseRound runs one search, timing the rounds between progress events.
func dseRound(opts dse.Options) (round, dse.Result, []time.Duration, error) {
	var r round
	var sims obs.Counter
	var folds []time.Duration
	opts.SimCounter = &sims
	opts.Phase = func(name string, d time.Duration) {
		if name == "frontier_fold" {
			folds = append(folds, d)
		}
	}
	t0 := time.Now()
	last := t0
	opts.Progress = func(ev dse.Event) {
		if ev.Done {
			return
		}
		now := time.Now()
		r.ops = append(r.ops, now.Sub(last))
		last = now
	}
	res, err := dse.Search(context.Background(), opts)
	r.wall = time.Since(t0)
	r.sims = int(sims.Value())
	// Simulated instructions: every feasible candidate and the baseline
	// run each workload on every core at its fidelity's budget.
	cores := uint64(8)
	w := uint64(len(opts.Workloads))
	r.instr = w * cores * (uint64(feasible(res.Screened)+1)*opts.ScreenInstrPerCore + uint64(feasible(res.Evaluated)+1)*opts.InstrPerCore)
	return r, res, folds, err
}

// feasibleRuns is the number of simulations a search must execute: every
// feasible candidate and the baseline of each fidelity, on every
// workload.
func feasibleRuns(opts dse.Options, res dse.Result) int {
	return len(opts.Workloads) * (feasible(res.Screened) + feasible(res.Evaluated) + 2)
}

// checkDSE verifies a search result: the simulation count matches the
// candidates evaluated, and every frontier point's objectives are
// recomputed exactly from fresh, conservation-checked runs.
func checkDSE(t *tally, opts dse.Options, res dse.Result, sims int) {
	var err error
	if want := feasibleRuns(opts, res); sims != want {
		err = fmt.Errorf("dse: %d simulations for %d feasible runs", sims, want)
	}
	t.check(err)
	if len(res.Frontier) == 0 {
		t.check(fmt.Errorf("dse: empty frontier"))
		return
	}
	designs := []string{"Baseline"}
	for _, p := range res.Frontier {
		designs = append(designs, p.Design)
	}
	ref, errs := sweepRef(nil, 0, designs, opts.Workloads, opts.InstrPerCore, opts.SimSeed)
	for _, err := range errs {
		t.check(err)
	}
	nw := len(opts.Workloads)
	for i, p := range res.Frontier {
		var logSpeedup, traffic float64
		for j := 0; j < nw; j++ {
			r := ref[(i+1)*nw+j]
			logSpeedup += math.Log(float64(ref[j].Cycles) / float64(r.Cycles))
			traffic += float64(r.Mem.NMWriteBytes + r.Mem.FMWriteBytes)
		}
		var err error
		if s, tr := math.Exp(logSpeedup/float64(nw)), traffic/float64(nw)/1e9; s != p.Speedup || tr != p.TrafficGB {
			err = fmt.Errorf("dse: frontier point %s: speedup %v traffic %v, re-run gives %v %v", p.Design, p.Speedup, p.TrafficGB, s, tr)
		}
		t.check(err)
	}
}

func runDSE(e *env) (map[string]float64, error) {
	opts := dseOptions(e.seed)
	setup, err := timeSetup(func() error { return dseSetup(opts) })
	if err != nil {
		return nil, err
	}
	var first []byte
	var firstRes dse.Result
	var firstSims int
	rounds, err := measureRounds(e.seconds, 3, func(i int) (round, error) {
		r, res, _, err := dseRound(opts)
		if err != nil {
			return r, err
		}
		doc, err := json.Marshal(res)
		if err != nil {
			return r, err
		}
		if i == 0 {
			first, firstRes, firstSims = doc, res, r.sims
		} else if string(doc) != string(first) {
			e.t.check(fmt.Errorf("dse: round %d result differs from round 0", i))
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	checkDSE(e.t, opts, firstRes, firstSims)
	return endToEnd(setup, rounds), nil
}

// tracedEvaluator evaluates search batches through the benchmark's own
// run calls, with spans, and sums the simulated totals.
type tracedEvaluator struct {
	rec    *recorder
	parent int // the dse.Search span
	t      *tally

	mu                                    sync.Mutex
	next                                  int
	cycles, instr, misses, nm, migrations float64
}

func (te *tracedEvaluator) eval(_ context.Context, cfg dse.EvalConfig, runs []dse.EvalRun) ([]dse.EvalResult, error) {
	te.mu.Lock()
	base := te.next
	te.next += len(runs)
	te.mu.Unlock()
	out := make([]dse.EvalResult, len(runs))
	parallel(len(runs), func(i int) {
		run := runs[i]
		wl, ok := workload.ByName(run.Workload)
		if !ok {
			out[i].Err = "unknown workload " + run.Workload
			return
		}
		sys := system(cfg.InstrPerCore, cfg.SimSeed)
		res, err := simulate(te.rec, base+i, te.parent, run.Design, wl.Name, streams(wl, sys), sim.MLPFor(wl), sys)
		if err != nil {
			out[i].Err = err.Error()
			return
		}
		te.t.check(checkResult(res))
		out[i] = dse.EvalResult{Cycles: uint64(res.Cycles), WriteBytes: res.Mem.NMWriteBytes + res.Mem.FMWriteBytes}
		te.mu.Lock()
		te.cycles += float64(res.Cycles)
		te.instr += float64(res.Instructions)
		te.misses += float64(res.LLCMisses)
		te.nm += float64(res.Mem.ServedNM)
		te.migrations += float64(res.Mem.Migrations)
		te.mu.Unlock()
	})
	return out, nil
}

// dseLayers is the dse-screen part of the traced run: an untraced
// search, then the same search evaluated through traced run calls; the
// two results must be identical.
func dseLayers(e *env, rec *recorder, m map[string]float64) error {
	opts := dseOptions(e.seed)
	if err := dseSetup(opts); err != nil {
		return err
	}
	r, res, folds, err := dseRound(opts)
	if err != nil {
		return err
	}
	checkDSE(e.t, opts, res, r.sims)

	te := &tracedEvaluator{rec: rec, t: e.t}
	topts := opts
	topts.Eval = te.eval
	t0 := time.Now()
	te.parent = rec.begin(-1, -1, "dse.Search")
	tres, err := dse.Search(context.Background(), topts)
	rec.end(te.parent)
	traced := time.Since(t0)
	if err != nil {
		return err
	}
	a, _ := json.Marshal(res)
	b, _ := json.Marshal(tres)
	if string(a) != string(b) {
		e.t.check(fmt.Errorf("dse: traced search differs from the in-process search"))
	}

	spans := rec.snapshot()
	dur := durByName(spans)
	m["design.build_share.dse-screen"] = float64(dur["design.Spec.Build"]) / float64(dur["run"])
	m["trace_overhead_share.dse-screen"] = traced.Seconds()/r.wall.Seconds() - 1

	infeasible := (len(res.Screened) - feasible(res.Screened)) + (len(res.Evaluated) - feasible(res.Evaluated))
	var fold time.Duration
	for _, d := range folds {
		fold += d
	}
	best := 0.0
	for _, p := range res.Frontier {
		best = max(best, p.Speedup)
	}
	m["exp.sims"] = float64(r.sims)
	m["exp.memo_hit_ratio"] = 1 - float64(r.sims)/float64(feasibleRuns(opts, res))
	m["dse.screened"] = float64(len(res.Screened))
	m["dse.promoted"] = float64(len(res.Evaluated))
	m["dse.infeasible"] = float64(infeasible)
	m["dse.frontier_fold_ms"] = millis(fold)
	m["dse.candidates_per_s"] = float64(len(res.Screened)+len(res.Evaluated)) / r.wall.Seconds()
	m["simstat.dse-screen.cycles"] = te.cycles
	m["simstat.dse-screen.instructions"] = te.instr
	m["simstat.dse-screen.llc_misses"] = te.misses
	m["simstat.dse-screen.nm_served"] = te.nm
	m["simstat.dse-screen.migrations"] = te.migrations
	m["simstat.dse-screen.best_speedup"] = best
	return nil
}
