package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

func TestInputsArePureFunctionsOfSeed(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42} {
		if a, b := sweepConfig(seed), sweepConfig(seed); a != b {
			t.Errorf("seed %d: sweep config %+v then %+v", seed, a, b)
		}
		if a, b := dseOptions(seed), dseOptions(seed); !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d: search options differ between calls", seed)
		}
		if a, b := warmSet(seed), warmSet(seed); !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d: warm set differs between calls", seed)
		}
		for r := 0; r < 3; r++ {
			if a, b := serveRound(seed, r), serveRound(seed, r); !reflect.DeepEqual(a, b) {
				t.Errorf("seed %d round %d: request mix differs between calls", seed, r)
			}
		}
		a, _, err := traceFile(seed)
		if err != nil {
			t.Fatal(err)
		}
		b, _, _ := traceFile(seed)
		if !bytes.Equal(a, b) {
			t.Errorf("seed %d: replay trace differs between calls", seed)
		}
	}
	if reflect.DeepEqual(serveRound(1, 0), serveRound(2, 0)) {
		t.Error("seeds 1 and 2 give the same request mix")
	}
	if sweepConfig(1).Seed == sweepConfig(2).Seed {
		t.Error("seeds 1 and 2 give the same simulation seed")
	}
}

func TestServeRoundKeepsTheMixFixed(t *testing.T) {
	count := func(reqs []request) map[reqKind]int {
		n := map[reqKind]int{}
		for _, q := range reqs {
			n[q.kind]++
		}
		return n
	}
	want := count(serveRound(1, 0))
	for _, seed := range []uint64{2, 3} {
		for r := 0; r < 3; r++ {
			if got := count(serveRound(seed, r)); !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d round %d: mix %v, want %v", seed, r, got, want)
			}
		}
	}
	seen := map[uint64]bool{}
	for r := 0; r < 3; r++ {
		for _, q := range serveRound(1, r) {
			if q.kind == kindCold {
				if seen[q.seed] {
					t.Fatalf("cold seed %d repeats, so the run would not be cold", q.seed)
				}
				seen[q.seed] = true
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60},                         // overlaps a: union [10, 60)
		{ID: 3, Parent: 0, Name: "calls", Start: 62, End: 95, Busy: 20, Calls: 5}, // aggregate
		{ID: 4, Parent: 1, Name: "d", Start: 20, End: 50},                         // clipped to [20, 40) in a
		{ID: 5, Parent: -1, Name: "other", Start: 0, End: 10},
	}
	want := []int64{100 - 50 - 20, 30 - 20, 30, 20, 30, 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	if got := selfByName(spans)["root"]; got != 30 {
		t.Errorf("root self by name %d, want 30", got)
	}
	if got := durByName(spans)["calls"]; got != 20 {
		t.Errorf("aggregate duration %d, want its busy time 20", got)
	}
}

func TestRecorderSpans(t *testing.T) {
	var none *recorder
	if id := none.begin(0, -1, "x"); id != -1 {
		t.Errorf("nil recorder returned span %d", id)
	}
	none.end(-1)
	r := newRecorder()
	root := r.begin(7, -1, "run")
	ct := &callTimer{rec: r}
	for i := 0; i < 3; i++ {
		ct.stop(ct.start())
	}
	ct.flush(7, root, "calls")
	r.end(root)
	s := r.snapshot()
	if len(s) != 2 || s[1].Parent != root || s[1].Calls != 3 || s[1].Trace != 7 {
		t.Fatalf("spans %+v", s)
	}
	if self := selfTimes(s); self[0] != s[0].dur()-s[1].Busy {
		t.Errorf("root self %d, want %d", self[0], s[0].dur()-s[1].Busy)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := median(xs); got != 3 {
		t.Errorf("median %v, want 3", got)
	}
	if got := quantile(xs, 0.9); got != 4.6 {
		t.Errorf("p90 %v, want 4.6", got)
	}
	if got := quantile([]float64{2}, 0.99); got != 2 {
		t.Errorf("p99 of one sample %v, want 2", got)
	}
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func TestMetricNamesDeclared(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []declared              `json:"end_to_end"`
		PerLayer  []declared              `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(kind string, printed []metricDef, decl []declared) {
		if len(printed) != len(decl) {
			t.Errorf("%s: prints %d metrics, BENCHMARK.json declares %d", kind, len(printed), len(decl))
		}
		for i, m := range printed {
			if !nameRE.MatchString(m.name) {
				t.Errorf("%s: bad metric name %q", kind, m.name)
			}
			if seen[m.name] {
				t.Errorf("%s: metric %q printed twice", kind, m.name)
			}
			seen[m.name] = true
			if i < len(decl) && (decl[i].Name != m.name || decl[i].Unit != m.unit) {
				t.Errorf("%s[%d]: prints %s (%s), BENCHMARK.json declares %s (%s)", kind, i, m.name, m.unit, decl[i].Name, decl[i].Unit)
			}
		}
	}
	check("end_to_end", endToEndMetrics, b.EndToEnd)
	check("per_layer", perLayerMetrics(), b.PerLayer)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("declared workload %q is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json declares workloads %v, the benchmark implements %d", names, len(workloads))
	}
}
