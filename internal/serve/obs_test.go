package serve

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"hybridmem/internal/api"
	"hybridmem/internal/cluster"
	"hybridmem/internal/cow"
	"hybridmem/internal/obs"
)

// obsSweep and obsExplore are the shared workloads of the
// observability tests: real but cheap jobs that cross every
// instrumented phase.
func obsSweep() sweepRequest {
	return sweepRequest{
		Designs:   []string{"Baseline", "HYBRID2"},
		Workloads: []string{"lbm", "mcf"},
		Config:    api.Config{Scale: 16, NMRatio16: 1, InstrPerCore: 50_000, Seed: 1},
	}
}

func obsExplore() exploreRequest {
	return exploreRequest{
		Families:           []string{"H2DSE"},
		Workloads:          []string{"mcf"},
		Budget:             6,
		BatchSize:          2,
		Seed:               7,
		MaxPerParam:        3,
		ScreenInstrPerCore: 8_000,
		Config:             api.Config{Scale: 16, NMRatio16: 1, InstrPerCore: 20_000, Seed: 1},
	}
}

// TestObservabilityIsPassive pins the tentpole invariant: the documents
// a server produces are byte-identical with the observability plane
// enabled (the default) and fully disabled (obs.Nop()), for both sweep
// and explore.
func TestObservabilityIsPassive(t *testing.T) {
	on := newTestServer(t, Options{Parallelism: 2})
	off := newTestServer(t, Options{Parallelism: 2, Obs: obs.Nop()})

	for _, tc := range []struct {
		path string
		req  any
	}{
		{"/v1/sweep", obsSweep()},
		{"/v1/explore", obsExplore()},
	} {
		want := runJob(t, on, tc.path, tc.req)
		got := runJob(t, off, tc.path, tc.req)
		if !bytes.Equal(got, want) {
			t.Errorf("%s output differs with observability disabled:\non:  %s\noff: %s", tc.path, want, got)
		}
	}
}

// TestScrapeWhileSweepingIsRaceClean hammers /metrics from a scraper
// goroutine while a clustered sweep dispatches shards — under -race
// this pins that the registry, the coordinator's Stats() collectors and
// the store snapshots are safe against concurrent scrapes. Every scrape
// must also pass the exposition lint, and counters must be monotonic
// from the first scrape to the last.
func TestScrapeWhileSweepingIsRaceClean(t *testing.T) {
	s, _ := clusterTestServer(t, 2)

	first := get(s.Handler(), "/metrics")
	if ct := first.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics Content-Type = %q, want text/plain; version=0.0.4", ct)
	}
	if err := obs.Lint(first.Body.Bytes()); err != nil {
		t.Fatalf("first scrape fails lint: %v", err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			w := get(s.Handler(), "/metrics")
			if err := obs.Lint(w.Body.Bytes()); err != nil {
				t.Errorf("mid-sweep scrape fails lint: %v", err)
				return
			}
		}
	}()

	runJob(t, s, "/v1/sweep", obsSweep())
	close(stop)
	wg.Wait()

	last := get(s.Handler(), "/metrics")
	if err := obs.Lint(last.Body.Bytes()); err != nil {
		t.Fatalf("final scrape fails lint: %v", err)
	}
	if err := obs.LintMonotonic(first.Body.Bytes(), last.Body.Bytes()); err != nil {
		t.Fatalf("counters ran backwards across the sweep: %v", err)
	}
	if !strings.Contains(last.Body.String(), `hybridmem_phase_duration_us_count{phase="simulate"}`) {
		t.Error("final scrape is missing the simulate phase histogram")
	}
}

// TestDebugEndpoints checks the operational surface riding on the API
// mux: the pprof index and heap profile answer, and /debug/events dumps
// the flight recorder as JSON holding the spans a completed job left
// behind.
func TestDebugEndpoints(t *testing.T) {
	s := newTestServer(t, Options{})
	runJob(t, s, "/v1/sweep", sweepRequest{
		Designs:   []string{"Baseline"},
		Workloads: []string{"lbm"},
		Config:    api.Config{Scale: 16, NMRatio16: 1, InstrPerCore: 50_000, Seed: 1},
	})

	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap"} {
		if w := get(s.Handler(), path); w.Code != 200 {
			t.Errorf("GET %s = %d, want 200", path, w.Code)
		}
	}

	w := get(s.Handler(), "/debug/events")
	if w.Code != 200 {
		t.Fatalf("GET /debug/events = %d, want 200", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("/debug/events Content-Type = %q", ct)
	}
	var dump struct {
		Total  uint64      `json:"total"`
		Events []obs.Event `json:"events"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &dump); err != nil {
		t.Fatalf("/debug/events is not valid JSON: %v", err)
	}
	if dump.Total == 0 || len(dump.Events) == 0 {
		t.Fatalf("flight recorder empty after a job: total=%d events=%d", dump.Total, len(dump.Events))
	}
	var sawJob bool
	for _, e := range dump.Events {
		if e.Name == "job" && e.Kind == "span_end" {
			sawJob = true
		}
	}
	if !sawJob {
		t.Error("no completed job span in /debug/events dump")
	}
}

// TestDistributedExploreSpanTimeline runs an exploration across two
// loopback runners with tracing on and checks that the flight recorder
// holds one coherent timeline: the job span parents the cluster batch
// spans, which parent the per-shard dispatch spans, which parent the
// runner-side execution spans — all under the job's trace ID. The
// traced clustered document must also stay byte-identical to a plain
// untraced server's.
func TestDistributedExploreSpanTimeline(t *testing.T) {
	o := obs.New(obs.Options{})
	c := cluster.NewCoordinator(cluster.CoordinatorOptions{
		ShardSize:   1,
		MaxInFlight: 1,
		Obs:         o,
	})
	c.AttachLoopback(2, 1)
	s := newTestServer(t, Options{Cluster: c, Parallelism: 2, Obs: o})

	want := runJob(t, newTestServer(t, Options{Parallelism: 2}), "/v1/explore", obsExplore())
	got := runJob(t, s, "/v1/explore", obsExplore())
	if !bytes.Equal(got, want) {
		t.Fatalf("traced clustered exploration differs from plain server:\nplain:  %s\ntraced: %s", want, got)
	}

	// Index span starts by name; spans[name][spanID] = parentID.
	spans := make(map[string]map[string]string)
	traces := make(map[string]string) // spanID -> traceID
	for _, e := range o.Flight().Snapshot() {
		if e.Kind != "span_start" {
			continue
		}
		if spans[e.Name] == nil {
			spans[e.Name] = make(map[string]string)
		}
		spans[e.Name][e.Span] = e.Parent
		traces[e.Span] = e.Trace
	}
	for _, name := range []string{"job", "cluster_batch", "shard", "runner_shard"} {
		if len(spans[name]) == 0 {
			t.Fatalf("timeline has no %q span; span names: %v", name, names(spans))
		}
	}
	if len(spans["job"]) != 1 {
		t.Fatalf("expected exactly one job span, got %d", len(spans["job"]))
	}
	var jobID, jobTrace string
	for id := range spans["job"] {
		jobID, jobTrace = id, traces[id]
	}

	// Walk each level down and require at least one properly-parented
	// span, with the whole chain on the job's trace.
	chained := func(level string, parents map[string]string) map[string]string {
		out := make(map[string]string)
		for id, parent := range spans[level] {
			if _, ok := parents[parent]; ok {
				if traces[id] != jobTrace {
					t.Errorf("%s span %s is on trace %s, want job trace %s", level, id, traces[id], jobTrace)
				}
				out[id] = parent
			}
		}
		if len(out) == 0 {
			t.Fatalf("no %s span is parented into the job timeline", level)
		}
		return out
	}
	batches := chained("cluster_batch", map[string]string{jobID: ""})
	shards := chained("shard", batches)
	chained("runner_shard", shards)
}

func names(spans map[string]map[string]string) []string {
	out := make([]string, 0, len(spans))
	for n := range spans {
		out = append(out, n)
	}
	return out
}

// TestMetricsExportLayoutMemo checks that /metrics exports the shared
// layout memo's counters and that a cold Hybrid2 sweep, after the memo
// is emptied, moves the build counter.
func TestMetricsExportLayoutMemo(t *testing.T) {
	s := newTestServer(t, Options{Parallelism: 2})
	cow.Reset()
	before := cow.ReadStats()
	runJob(t, s, "/v1/sweep", obsSweep())
	body := get(s.Handler(), "/metrics").Body.String()
	if err := obs.Lint([]byte(body)); err != nil {
		t.Fatalf("scrape fails lint: %v", err)
	}
	for _, family := range []string{"hybridmem_layout_builds_total", "hybridmem_layout_wait_seconds_total"} {
		if !strings.Contains(body, "# TYPE "+family+" counter\n") {
			t.Errorf("/metrics is missing the %s counter", family)
		}
	}
	if cow.ReadStats().Builds == before.Builds {
		t.Error("a cold Hybrid2 sweep built no layout")
	}
}
