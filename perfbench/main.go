// Command perfbench is the repository benchmark: three workloads that
// each load a different layer of the simulator and its service, a
// correctness gate over every output, and a traced run that breaks the
// time down per layer. See BENCHMARK.json at the repository root for the
// metrics and the reasons behind each workload.
//
// Run it from the repository root (perfbench/run.sh builds it first):
//
//	perfbench --workload sweep|dse-screen|serve --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Any failed check prints the
// object with correct false and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"

	"hybridmem/internal/design"
)

type metricDef struct{ name, unit string }

// endToEndMetrics are printed, untraced, by every workload.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_minstr_per_s", "Minstr/s"},
	{"runs_per_s", "1/s"},
	{"alloc_mb", "MB"},
	{"max_rss_mb", "MB"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
}

// buildDesigns are the designs whose construction is timed: one per
// family of the sweep and the search.
var buildDesigns = append(append([]string(nil), sweepDesigns...), "H2DSE-64-2-256", "IDEAL-256")

// family returns a design's registered family name.
func family(designName string) string {
	spec, err := design.Parse(designName)
	if err != nil {
		panic(err) // the names above are fixed and valid
	}
	return spec.Info.Name
}

// perLayerMetrics are printed by the traced run of every workload.
func perLayerMetrics() []metricDef {
	out := []metricDef{
		{"workload.gen_ns_per_rec", "ns"},
		{"trace.decode_ns_per_rec", "ns"},
		{"cachesim.access_ns", "ns"},
		{"cachesim.miss_ratio", "ratio"},
		{"memsys.hbm2.access_ns", "ns"},
		{"memsys.ddr4.access_ns", "ns"},
		{"access.replay_calls", "count"},
	}
	for _, d := range sweepDesigns {
		out = append(out, metricDef{"access." + d + ".ns", "ns"}, metricDef{"access." + d + ".nm_served_frac", "ratio"})
	}
	for _, d := range buildDesigns {
		f := family(d)
		out = append(out, metricDef{"build." + f + ".ms", "ms"}, metricDef{"build." + f + ".mb", "MB"})
	}
	out = append(out, []metricDef{
		{"api.encode_run_us", "us"},
		{"api.encode_sweep_us", "us"},
		{"store.mem_get_us", "us"},
		{"store.disk_get_us", "us"},
		{"store.disk_put_us", "us"},

		{"sim.loop_self_share", "ratio"},
		{"design.build_share.sweep", "ratio"},
		{"sweep.layer_self_coverage", "ratio"},
		{"trace_overhead_share.sweep", "ratio"},
	}...)
	for _, s := range []string{"cycles", "instructions", "llc_misses", "nm_served", "migrations"} {
		out = append(out, metricDef{"simstat.sweep." + s, "count"})
	}
	out = append(out, metricDef{"simstat.sweep.h2_speedup_geomean", "ratio"})
	out = append(out, []metricDef{
		{"design.build_share.dse-screen", "ratio"},
		{"trace_overhead_share.dse-screen", "ratio"},
		{"exp.sims", "count"},
		{"exp.memo_hit_ratio", "ratio"},
		{"dse.screened", "count"},
		{"dse.promoted", "count"},
		{"dse.infeasible", "count"},
		{"dse.frontier_fold_ms", "ms"},
		{"dse.candidates_per_s", "1/s"},
	}...)
	for _, s := range []string{"cycles", "instructions", "llc_misses", "nm_served", "migrations"} {
		out = append(out, metricDef{"simstat.dse-screen." + s, "count"})
	}
	out = append(out, metricDef{"simstat.dse-screen.best_speedup", "ratio"})
	out = append(out, []metricDef{
		{"store.mem_hit_ratio", "ratio"},
		{"store.disk_hits", "count"},
		{"serve.canonicalize_us", "us"},
		{"serve.store_lookup_us", "us"},
		{"serve.simulate_ms", "ms"},
		{"serve.server_share", "ratio"},
		{"serve.sims", "count"},
		{"serve.singleflight_shared", "count"},
		{"serve.cold_p50_ms", "ms"},
		{"serve.cold_p90_ms", "ms"},
		{"serve.cold_samples", "count"},
		{"serve.warm_p50_ms", "ms"},
		{"serve.warm_p99_ms", "ms"},
		{"serve.warm_samples", "count"},
		{"serve.job_s", "s"},
		{"serve.replay_mrec_per_s", "Mrec/s"},
		{"cluster.dispatch_ms", "ms"},
		{"cluster.shards_dispatched", "count"},
		{"cluster.shards_stolen", "count"},
		{"cluster.shards_retried", "count"},
		{"cluster.overhead_ms", "ms"},
		{"trace_overhead_share.serve", "ratio"},
	}...)
	return out
}

// tally counts attempted operations and failed checks. It is safe for
// concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int
	errs      []error
}

// check counts one attempted operation, failed when err is non-nil.
func (t *tally) check(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.errs = append(t.errs, err)
	}
}

// env is what one benchmark invocation hands its workload.
type env struct {
	seed    uint64
	seconds float64
	work    string // scratch directory inside the checkout
	t       *tally
}

var workloads = map[string]func(e *env) (map[string]float64, error){
	"sweep":      runSweep,
	"dse-screen": runDSE,
	"serve":      runServe,
}

func main() {
	wl := flag.String("workload", "", "workload: sweep, dse-screen or serve")
	seed := flag.Uint64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 10, "seconds to measure")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer breakdown instead")
	flag.Parse()
	fn, ok := workloads[*wl]
	if !ok || *traced < 0 || *traced > 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload sweep|dse-screen|serve --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	// The bounds' machine's CPU count, whatever the host reports.
	runtime.GOMAXPROCS(workers)

	out := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(out, 0o755); err != nil {
		fatal(err)
	}
	work, err := os.MkdirTemp(out, "work-")
	if err != nil {
		fatal(err)
	}
	e := &env{seed: *seed, seconds: *seconds, work: work, t: &tally{}}
	defs := endToEndMetrics
	var metrics map[string]float64
	if *traced == 1 {
		defs = perLayerMetrics()
		spansPath := filepath.Join(out, fmt.Sprintf("spans-%s-%d.jsonl", *wl, *seed))
		metrics, err = runTraced(e, spansPath)
	} else {
		metrics, err = fn(e)
	}
	os.RemoveAll(work)
	if err != nil {
		fatal(err)
	}
	if err := report(defs, metrics, e.t); err != nil {
		fatal(err)
	}
	if len(e.t.errs) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the result line. Every declared metric must have been
// measured and no undeclared one may appear.
func report(defs []metricDef, metrics map[string]float64, t *tally) error {
	out := map[string]metricOut{}
	for _, d := range defs {
		v, ok := metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metricOut{v, d.unit}
	}
	if len(metrics) != len(defs) {
		var extra []string
		for name := range metrics {
			if !slices.ContainsFunc(defs, func(d metricDef) bool { return d.name == name }) {
				extra = append(extra, name)
			}
		}
		return fmt.Errorf("undeclared metrics: %s", strings.Join(extra, ", "))
	}
	for _, err := range t.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
	}
	attempted := max(t.attempted, 1)
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{len(t.errs) == 0, attempted, len(t.errs), out})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
