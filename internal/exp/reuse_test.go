package exp

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"hybridmem/internal/design"
	"hybridmem/internal/sim"
	"hybridmem/internal/telemetry"
	"hybridmem/internal/workload"
)

// reuseDesigns mixes families that reset each other's organizations
// (the Hybrid2 and DRAM-cache families), geometries that grow and shrink
// the reused arrays, and families without a Reset, which empty the slot.
var reuseDesigns = []string{
	"H2DSE-64-2-256", "H2DSE-64-2-512", "DFC-64", "IDEAL-64", "HYBRID2",
	"H2-CacheOnly", "ALLOY", "TAGLESS", "DFC-1024", "IDEAL-256", "H2DSE-256-1-64",
	"H2ABL-free-200", "MPOD", "Baseline",
}

// reuseRun is one run of a reuse sequence: a design on a workload at a
// simulation seed and an instruction budget.
type reuseRun struct {
	design string
	wl     workload.Spec
	seed   uint64
	instr  uint64
}

func (u reuseRun) String() string {
	return fmt.Sprintf("%s/%s seed %d instr %d", u.design, u.wl.Name, u.seed, u.instr)
}

// runner returns a serial runner for u's seed and budget.
func (u reuseRun) runner() *Runner {
	return &Runner{Scale: 16, InstrPerCore: u.instr, Seed: u.seed, Parallelism: 1}
}

// freshResult runs u on a newly built organization and LLC, the way
// every run was built before runs reused state.
func freshResult(t *testing.T, u reuseRun) sim.Result {
	t.Helper()
	sys := u.runner().system(1)
	ms, nm, fm, err := design.Build(u.design, sys)
	if err != nil {
		t.Fatal(err)
	}
	return sim.Run(u.wl, ms, nm, fm, sys)
}

// reuseSequence draws a fixed-seed sequence of n runs over four
// workloads, two simulation seeds and both screening fidelities.
func reuseSequence(t *testing.T, n int) []reuseRun {
	t.Helper()
	var wls []workload.Spec
	for _, name := range []string{"mcf", "lbm", "xz", "namd"} {
		wl, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		wls = append(wls, wl)
	}
	rng := rand.New(rand.NewSource(14))
	seq := make([]reuseRun, n)
	for i := range seq {
		seq[i] = reuseRun{
			design: reuseDesigns[rng.Intn(len(reuseDesigns))],
			wl:     wls[rng.Intn(len(wls))],
			seed:   []uint64{7, 12345}[rng.Intn(2)],
			instr:  []uint64{3_000, 30_000}[rng.Intn(2)],
		}
	}
	return seq
}

// TestReuseMatchesFreshBuild drives a fixed-seed sequence of runs
// through one reuse slot: every result must equal, field for field, the
// result of the same run on a freshly built organization and LLC.
func TestReuseMatchesFreshBuild(t *testing.T) {
	var slot runSlot
	var resets int64
	for i, u := range reuseSequence(t, 48) {
		spec, err := design.Parse(u.design)
		if err != nil {
			t.Fatal(err)
		}
		r := u.runner()
		got, err := r.simulate(&slot, spec, u.wl, r.system(1), nil)
		if err != nil {
			t.Fatalf("run %d %v: %v", i, u, err)
		}
		resets += r.resets.Load()
		if want := freshResult(t, u); got != want {
			t.Fatalf("run %d %v on a reused slot:\n got %+v\nwant %+v", i, u, got, want)
		}
	}
	if resets == 0 {
		t.Fatal("no run reset the slot's organization")
	}
}

// TestReuseParallelEachMatchesFreshBuild runs the same sequence, grouped
// into one batch per (seed, budget), through ResultsParallelEach on two
// workers, whose slots reuse state in scheduling-dependent order.
func TestReuseParallelEachMatchesFreshBuild(t *testing.T) {
	type group struct{ seed, instr uint64 }
	batches := map[group][]reuseRun{}
	for _, u := range reuseSequence(t, 48) {
		g := group{u.seed, u.instr}
		batches[g] = append(batches[g], u)
	}
	for g, runs := range batches {
		r := runs[0].runner()
		r.Parallelism = 2
		specs := make([]RunSpec, len(runs))
		for i, u := range runs {
			specs[i] = RunSpec{Workload: u.wl, Design: u.design, Ratio16: 1}
		}
		res, errs := r.ResultsParallelEach(context.Background(), specs)
		for i, u := range runs {
			if errs[i] != nil {
				t.Fatalf("%+v run %v: %v", g, u, errs[i])
			}
			if want := freshResult(t, u); res[i] != want {
				t.Fatalf("%+v run %v on two workers:\n got %+v\nwant %+v", g, u, res[i], want)
			}
		}
	}
}

// TestReuseResetsMostRuns checks that reuse happens: a design-grouped
// batch of 4 workloads x 6 designs on 2 workers resets the worker's
// organization for at least 3 of every 4 runs. An implementation that
// never reused would pass the equivalence tests above.
func TestReuseResetsMostRuns(t *testing.T) {
	r := &Runner{Scale: 16, InstrPerCore: 3_000, Seed: 1, Parallelism: 2}
	for _, name := range []string{"mcf", "lbm", "xz", "namd"} {
		wl, _ := workload.ByName(name)
		r.Subset = append(r.Subset, wl)
	}
	specs := r.SweepSpecs([]string{"H2DSE-64-2-256", "H2DSE-64-2-512", "HYBRID2", "H2-CacheOnly", "DFC-64", "IDEAL-64"}, []int{1})
	if _, errs := r.ResultsParallelEach(context.Background(), specs); fmt.Sprint(errs) != fmt.Sprint(make([]error, len(specs))) {
		t.Fatalf("runs failed: %v", errs)
	}
	resets := r.resets.Load()
	if 4*resets < 3*int64(len(specs)) {
		t.Fatalf("%d of %d runs reset a slot's organization, want at least 3 in 4", resets, len(specs))
	}
}

// TestReusePanicEmptiesSlot checks that a run which panics mid-simulation
// leaves its worker's slot empty, so the worker's next run builds fresh
// and still matches a fresh build.
func TestReusePanicEmptiesSlot(t *testing.T) {
	mcf, _ := workload.ByName("mcf")
	lbm, _ := workload.ByName("lbm")
	r := &Runner{Scale: 16, InstrPerCore: 3_000, Seed: 1, Parallelism: 1}
	r.Telemetry = &TelemetryOptions{WindowInstr: 1024, OnEpoch: func(run int, _ telemetry.Epoch) {
		if run == 1 {
			panic("epoch hook failed")
		}
	}}
	specs := []RunSpec{
		{Workload: mcf, Design: "HYBRID2", Ratio16: 1},
		{Workload: lbm, Design: "HYBRID2", Ratio16: 1}, // panics mid-run
		{Workload: mcf, Design: "HYBRID2", Ratio16: 1},
	}
	res, _, err := r.ResultsParallelSeries(context.Background(), specs, nil)
	if err == nil {
		t.Fatal("the panicking run reported no error")
	}
	// Run 1 resets run 0's organization before it panics; run 2 must
	// find the slot empty.
	if got := r.resets.Load(); got != 1 {
		t.Fatalf("%d resets, want 1: the run after the panic reused its state", got)
	}
	want := freshResult(t, reuseRun{design: "HYBRID2", wl: mcf, seed: 1, instr: 3_000})
	if res[2] != want {
		t.Fatalf("run after the panic:\n got %+v\nwant %+v", res[2], want)
	}

	var slot runSlot
	spec, _ := design.Parse("HYBRID2")
	if _, err := r.simulate(&slot, spec, mcf, r.system(1), nil); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() { _ = recover() }()
		r.simulate(&slot, spec, lbm, r.system(1), r.Telemetry.sampler(1))
	}()
	if slot.ms != nil || slot.llc != nil {
		t.Fatal("a run that panicked left state in its slot")
	}
}
