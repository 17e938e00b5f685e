package exp

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridmem/internal/cow"
	"hybridmem/internal/workload"
)

func designSpecs(designs ...string) []RunSpec {
	specs := make([]RunSpec, len(designs))
	for i, d := range designs {
		specs[i].Design = d
	}
	return specs
}

// TestRunQueueDesignAffinity steps two workers through an interleaved
// batch, alternately: each keeps to the design it started, a free
// worker starts the first design nobody has, and once every design is
// started a free worker helps with any queued run.
func TestRunQueueDesignAffinity(t *testing.T) {
	specs := designSpecs("A", "B", "C", "A", "B", "C", "A", "B", "C")
	q := newRunQueue(len(specs), func(i int) any { return specs[i].Design })
	got := [2][]int{}
	last := [2]int{-1, -1}
	for w := 0; ; w ^= 1 {
		i, ok := q.next(&last[w])
		if !ok {
			break
		}
		got[w] = append(got[w], i)
	}
	want := [2][]int{{0, 3, 6, 2, 8}, {1, 4, 7, 5}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("worker runs %v, want %v", got, want)
	}
}

// meeting lets two callers wait for each other once per round, and
// reports false instead of hanging when the other never arrives.
type meeting struct {
	mu      sync.Mutex
	waiting chan struct{}
}

func (m *meeting) meet() bool {
	m.mu.Lock()
	if ch := m.waiting; ch != nil {
		m.waiting = nil
		m.mu.Unlock()
		close(ch)
		return true
	}
	ch := make(chan struct{})
	m.waiting = ch
	m.mu.Unlock()
	select {
	case <-ch:
		return true
	case <-time.After(10 * time.Second):
		return false
	}
}

type layoutKey struct{ design string }

type layout struct{ t cow.Table[uint32] }

func (l layout) Fork() layout { return layout{l.t.Fork()} }
func (l layout) Sum() uint64  { return l.t.Sum() }

func newLayout() layout {
	t, _ := cow.Make[uint32](1)
	return layout{t}
}

// TestGroupedBatchBuildsEachLayoutOnce runs a design-grouped batch on 2
// workers whose runs each take their design's layout from cow.Shared.
// The workers move in lockstep, one run per round, so every layout is
// pinned before its next run and the memo's two keys are the two designs
// in flight: each layout is built exactly once.
func TestGroupedBatchBuildsEachLayoutOnce(t *testing.T) {
	cow.Reset()
	defer cow.Reset()
	var designs []string
	for _, d := range []string{"D1", "D2", "D3", "D4", "D5", "D6"} {
		designs = append(designs, d, d, d)
	}
	specs := designSpecs(designs...)
	builds := map[string]*atomic.Int32{}
	for _, d := range designs {
		builds[d] = new(atomic.Int32)
	}
	r := tiny()
	r.Parallelism = 2
	var m meeting
	errs := r.parallelSpecs(context.Background(), specs, func(i int, _ *runSlot) error {
		d := specs[i].Design
		cow.Shared(layoutKey{d}, func() layout {
			builds[d].Add(1)
			return newLayout()
		})
		if !m.meet() {
			return fmt.Errorf("run %d: the other worker never arrived", i)
		}
		return nil
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	for d, n := range builds {
		if n.Load() != 1 {
			t.Errorf("%s: layout built %d times, want 1", d, n.Load())
		}
	}
}

// TestOneDesignBatchNotSerialized runs a batch of one design on 2
// workers: affinity must not hold the second worker back, so two runs
// are in flight at once.
func TestOneDesignBatchNotSerialized(t *testing.T) {
	specs := designSpecs("D", "D", "D", "D")
	r := tiny()
	r.Parallelism = 2
	var m meeting
	errs := r.parallelSpecs(context.Background(), specs, func(i int, _ *runSlot) error {
		if !m.meet() {
			return fmt.Errorf("run %d ran alone: the batch was serialized", i)
		}
		return nil
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}

// TestRunQueueSlotAndReadyPreference steps three workers through a batch
// by hand. A worker whose slot last ran group B starts on B, ahead of
// the unstarted A. Once every group is started, a free worker joins B,
// whose first run has finished, rather than the earlier-ordered C, whose
// first run is still in flight.
func TestRunQueueSlotAndReadyPreference(t *testing.T) {
	specs := designSpecs("A", "C", "C", "C", "B", "B", "B")
	q := newRunQueue(len(specs), func(i int) any { return specs[i].Design })
	step := func(w string, g *int, want int) {
		t.Helper()
		i, ok := q.next(g)
		if !ok || i != want {
			t.Fatalf("%s: got run %d (ok %v), want %d", w, i, ok, want)
		}
	}
	gB := q.find("B")
	if gB < 0 || q.find("D") != -1 || q.find(nil) != -1 {
		t.Fatalf("find: B at %d, D at %d, nil at %d", gB, q.find("D"), q.find(nil))
	}
	step("slot of B", &gB, 4)
	gA, gC := -1, -1
	step("first free", &gA, 0)
	step("second free", &gC, 1)
	if key := q.done(gB); key != "B" {
		t.Fatalf("done returned %v, want B", key)
	}
	step("B again", &gB, 5)
	q.done(gA)
	step("A emptied", &gA, 6) // B is ready; C's first run is in flight
	step("A to C", &gA, 2)
	step("B emptied", &gB, 3)
	if _, ok := q.next(&gC); ok {
		t.Fatal("queue handed out a run after the batch was exhausted")
	}
}

// TestLayoutKeyedDispatch runs a batch whose designs share initial
// layouts on two lockstep workers: H2DSE-64-2-256 and -512 differ in
// line size only and share one Hybrid2 placement, H2DSE-128-2-256 has
// another. Grouped by layout, each key is built exactly once and no
// worker ever blocks on the other's build. Grouped by design name, the
// second worker would start -512 while the first builds the placement
// -256 shares with it, and wait.
func TestLayoutKeyedDispatch(t *testing.T) {
	cow.Reset()
	defer cow.Reset()
	r := &Runner{Scale: 16, InstrPerCore: 3_000, Seed: 3, Parallelism: 2}
	for _, name := range []string{"mcf", "lbm", "xz", "namd"} {
		wl, _ := workload.ByName(name)
		r.Subset = append(r.Subset, wl)
	}
	specs := r.SweepSpecs([]string{"H2DSE-64-2-256", "H2DSE-64-2-512", "H2DSE-128-2-256"}, []int{1})
	keys := map[any]bool{}
	for _, rs := range specs {
		keys[r.group(rs)] = true
	}
	if len(keys) != 2 {
		t.Fatalf("%d dispatch groups, want 2 layout keys", len(keys))
	}
	before := cow.ReadStats()
	var m meeting
	errs := r.parallelSpecs(context.Background(), specs, func(i int, slot *runSlot) error {
		if _, err := r.result(specs[i].Workload, specs[i].Design, specs[i].Ratio16, slot); err != nil {
			return err
		}
		if !m.meet() {
			return fmt.Errorf("run %d: the other worker never arrived", i)
		}
		return nil
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	after := cow.ReadStats()
	if n := after.Builds - before.Builds; n != int64(len(keys)) {
		t.Errorf("%d layout builds for %d keys, want one each", n, len(keys))
	}
	if n := after.Waits - before.Waits; n != 0 {
		t.Errorf("workers blocked %d times (%v) on each other's layout builds, want 0", n, after.Wait-before.Wait)
	}
}
