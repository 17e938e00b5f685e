package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"hybridmem"
	"hybridmem/internal/sim"
)

// The sweep workload: the baseline and the 12 fixed designs on six
// workloads at the evaluation's full 1M instructions per core, through
// the public hybridmem.RunAll. Construction is a few percent of host
// time here; the run loop, the LLC, the design Access paths, the DRAM
// devices and workload generation do the work. One operation is one
// RunAll call: all 13 designs on one workload.

// sweepSetup validates the inputs and warms the process with one short
// RunAll over every design and workload, so lazily built state
// (memoized initial placements, the heap) is in place before timing.
func sweepSetup(cfg hybridmem.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	for _, d := range sweepDesigns {
		if err := hybridmem.ValidateDesign(d); err != nil {
			return err
		}
	}
	warm := cfg
	warm.InstrPerCore = 5_000
	_, err := hybridmem.RunAll(warm, hybridmem.SweepOptions{Parallelism: workers, Designs: sweepDesigns, Workloads: sweepWorkloads})
	return err
}

// sweepRound runs one round: one RunAll per workload. Results come back
// workload-major, each call in RunAll's design order.
func sweepRound(cfg hybridmem.Config) (round, []hybridmem.Result, error) {
	var r round
	res := make([]hybridmem.Result, 0, len(sweepDesigns)*len(sweepWorkloads))
	t0 := time.Now()
	for _, w := range sweepWorkloads {
		o0 := time.Now()
		rs, err := hybridmem.RunAll(cfg, hybridmem.SweepOptions{Parallelism: workers, Designs: sweepDesigns, Workloads: []string{w}})
		r.ops = append(r.ops, time.Since(o0))
		if err != nil {
			return r, nil, err
		}
		res = append(res, rs...)
	}
	r.wall = time.Since(t0)
	r.sims = len(res)
	for _, x := range res {
		r.instr += x.Instructions
	}
	return r, res, nil
}

// sweepTracedRound is sweepRound through the benchmark's own run calls,
// with spans, in the same per-workload grouping. Results come back in
// the same order.
func sweepTracedRound(rec *recorder, seed uint64) ([]sim.Result, []error, time.Duration) {
	var res []sim.Result
	var errs []error
	t0 := time.Now()
	for i, w := range sweepWorkloads {
		rs, es := sweepRef(rec, i*len(sweepDesigns), sweepDesigns, []string{w}, sweepInstr, seed)
		res, errs = append(res, rs...), append(errs, es...)
	}
	return res, errs, time.Since(t0)
}

// checkSweep compares a round's public results with the checked
// reference runs, both in workload-major order.
func checkSweep(t *tally, pub []hybridmem.Result, ref []sim.Result) {
	for i := range ref {
		var err error
		if !samePublic(pub[i], ref[i]) {
			err = fmt.Errorf("sweep %s/%s: RunAll result differs from the reference run", ref[i].Design, ref[i].Workload)
		}
		t.check(err)
	}
}

func runSweep(e *env) (map[string]float64, error) {
	cfg := sweepConfig(e.seed)
	setup, err := timeSetup(func() error { return sweepSetup(cfg) })
	if err != nil {
		return nil, err
	}
	var results [][]hybridmem.Result
	rounds, err := measureRounds(e.seconds, 3, func(int) (round, error) {
		r, res, err := sweepRound(cfg)
		results = append(results, res)
		return r, err
	})
	if err != nil {
		return nil, err
	}
	// The gate: every result of every round equals a reference run whose
	// conservation laws hold.
	ref, errs, _ := sweepTracedRound(nil, cfg.Seed)
	for _, err := range errs {
		e.t.check(err)
	}
	for _, res := range results {
		checkSweep(e.t, res, ref)
	}
	return endToEnd(setup, rounds), nil
}

// sweepLayers is the sweep part of the traced run: an untraced round,
// then a traced one over the same runs, compared with each other.
func sweepLayers(e *env, rec *recorder, m map[string]float64) ([]sim.Result, error) {
	cfg := sweepConfig(e.seed)
	if err := sweepSetup(cfg); err != nil {
		return nil, err
	}
	r, pub, err := sweepRound(cfg)
	if err != nil {
		return nil, err
	}
	ref, errs, traced := sweepTracedRound(rec, cfg.Seed)
	for _, err := range errs {
		e.t.check(err)
	}
	checkSweep(e.t, pub, ref)

	spans := rec.snapshot()
	dur, self := durByName(spans), selfByName(spans)
	var accessSelf int64
	for name, v := range self {
		if strings.HasPrefix(name, "access.") {
			accessSelf += v
		}
	}
	layerSelf := self["design.Spec.Build"] + self["sim.RunSources"] + self["workload.Stream.NextBatch"] + accessSelf
	m["design.build_share.sweep"] = float64(dur["design.Spec.Build"]) / float64(dur["run"])
	m["sim.loop_self_share"] = float64(self["sim.RunSources"]) / float64(dur["sim.RunSources"])
	m["sweep.layer_self_coverage"] = float64(layerSelf) / (float64(workers) * float64(traced))
	m["trace_overhead_share.sweep"] = traced.Seconds()/r.wall.Seconds() - 1

	var cycles, instr, misses, nm, migr float64
	base := map[string]float64{}
	h2 := map[string]float64{}
	for _, x := range ref {
		cycles += float64(x.Cycles)
		instr += float64(x.Instructions)
		misses += float64(x.LLCMisses)
		nm += float64(x.Mem.ServedNM)
		migr += float64(x.Mem.Migrations)
		switch x.Design {
		case "Baseline":
			base[x.Workload] = float64(x.Cycles)
		case "HYBRID2":
			h2[x.Workload] = float64(x.Cycles)
		}
	}
	var logSum float64
	for _, w := range sweepWorkloads {
		logSum += math.Log(base[w] / h2[w])
	}
	m["simstat.sweep.cycles"] = cycles
	m["simstat.sweep.instructions"] = instr
	m["simstat.sweep.llc_misses"] = misses
	m["simstat.sweep.nm_served"] = nm
	m["simstat.sweep.migrations"] = migr
	m["simstat.sweep.h2_speedup_geomean"] = math.Exp(logSum / float64(len(sweepWorkloads)))
	return ref, nil
}
