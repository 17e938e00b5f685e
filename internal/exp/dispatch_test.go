package exp

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridmem/internal/cow"
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
	q := newRunQueue(len(specs), func(i int) string { return specs[i].Design })
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
	errs := r.parallelSpecs(context.Background(), specs, func(i int) error {
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
	errs := r.parallelSpecs(context.Background(), specs, func(i int) error {
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
