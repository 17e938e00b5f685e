package cow

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// lengths covers empty, partial, exact and multi-page tables.
var lengths = []int{0, 1, pageLen - 1, pageLen, pageLen + 1, 3*pageLen + 7}

// filled returns a private table holding want.
func filled(want []uint32) Table[uint32] {
	t, s := Make[uint32](len(want))
	copy(s, want)
	return t
}

func check(t *testing.T, what string, tab *Table[uint32], want []uint32) {
	t.Helper()
	if tab.Len() != len(want) {
		t.Fatalf("%s: Len %d, want %d", what, tab.Len(), len(want))
	}
	for i, w := range want {
		if got := tab.At(i); got != w {
			t.Fatalf("%s: element %d = %d, want %d", what, i, got, w)
		}
	}
}

// TestForkIsolation pins the copy-on-write contract: writes through a
// fork are visible to that fork only, and never reach the parent or a
// sibling fork.
func TestForkIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range lengths {
		orig := make([]uint32, n)
		for i := range orig {
			orig[i] = rng.Uint32()
		}
		parent := filled(orig)
		a, b := parent.Fork(), parent.Fork()
		wantA := append([]uint32(nil), orig...)
		for range 2 * n {
			i := rng.Intn(n)
			v := rng.Uint32()
			a.Set(i, v)
			wantA[i] = v
		}
		check(t, "fork a", &a, wantA)
		check(t, "parent", &parent, orig)
		check(t, "fork b", &b, orig)
		if parent.Sum() != b.Sum() {
			t.Fatalf("n=%d: equal tables have different sums", n)
		}
	}
}

// TestRepeatIsolation pins Repeat's contract: the table reads as its
// pattern repeated, and a write reaches only its own element although
// pages with equal contents share storage.
func TestRepeatIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, period := range []int{1, 3, 17, pageLen, pageLen + 5} {
		pattern := make([]uint32, period)
		for i := range pattern {
			pattern[i] = rng.Uint32()
		}
		for _, n := range lengths {
			want := make([]uint32, n)
			for i := range want {
				want[i] = pattern[i%period]
			}
			a, b := Repeat(n, pattern), Repeat(n, pattern)
			check(t, "repeat", &a, want)
			for range n / 8 {
				i := rng.Intn(n)
				v := rng.Uint32()
				a.Set(i, v)
				want[i] = v
			}
			check(t, "written repeat", &a, want)
			for i := range n {
				if got := b.At(i); got != pattern[i%period] {
					t.Fatalf("period %d, n %d: write reached another table's element %d", period, n, i)
				}
			}
		}
	}
}

// TestSetPrivateInPlace pins that a private table owns its pages: Set
// writes in place, without copying.
func TestSetPrivateInPlace(t *testing.T) {
	tab, s := Make[uint32](pageLen + 1)
	tab.Set(pageLen, 7)
	if s[pageLen] != 7 {
		t.Fatal("Set on a private table did not write its backing slice")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	for _, n := range lengths {
		tab, _ := Make[uint32](n)
		for _, f := range []func(){
			func() { tab.At(n) },
			func() { tab.Set(n, 1) },
			func() { tab.At(-1) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("n=%d: out-of-range access did not panic", n)
					}
				}()
				f()
			}()
		}
	}
}

type testKey struct{ n, seed int }

type testLayout struct{ t Table[uint32] }

func (l testLayout) Fork() testLayout { return testLayout{l.t.Fork()} }
func (l testLayout) Sum() uint64      { return l.t.Sum() }

func (k testKey) want() []uint32 {
	out := make([]uint32, k.n)
	for i := range out {
		out[i] = uint32(i * k.seed)
	}
	return out
}

// layoutFor returns a Shared call for k that counts its builds and
// forks the pinned layout, as every caller must.
func layoutFor(k testKey, builds *atomic.Int32) func() testLayout {
	return func() testLayout {
		return Shared(k, func() testLayout {
			builds.Add(1)
			return testLayout{filled(k.want())}
		}).Fork()
	}
}

// TestSharedSightings pins the memo policy: the first sighting builds
// and pins the layout and, like every later sighting, gets the pinned
// layout itself, which the caller forks;
// later sightings never build; and the memo holds memoMax keys, evicting
// the least recently used, so an evicted key is built again.
func TestSharedSightings(t *testing.T) {
	Reset()
	defer Reset()
	k := testKey{n: 2*pageLen + 3, seed: 5}
	var builds atomic.Int32
	get := layoutFor(k, &builds)

	first := get()
	pinned, ok := Pinned()[k]
	if builds.Load() != 1 || !ok {
		t.Fatalf("first sighting: %d builds, pinned %v; want 1 build, pinned", builds.Load(), ok)
	}
	if p := Shared(k, func() testLayout { return testLayout{} }); p.t.shared != nil || p.Sum() != pinned.Sum() {
		t.Fatal("Shared returned a fork or another layout, want the pinned one")
	}
	sum := pinned.Sum()
	second := get()
	if builds.Load() != 1 {
		t.Fatal("second sighting rebuilt the layout")
	}
	for _, l := range []testLayout{first, second} {
		l.t.Set(0, 99)
		l.t.Set(k.n-1, 99)
	}
	if pinned.Sum() != sum {
		t.Fatal("writing to forks changed the pinned layout")
	}
	fresh := get()
	check(t, "fork after writes", &fresh.t, k.want())

	// Fill the memo with newer keys, re-sighting k before each so it
	// stays the most recently used: least-recently-used eviction keeps
	// it, where oldest-first eviction would not.
	for i := range memoMax {
		get()
		layoutFor(testKey{n: 1, seed: i}, new(atomic.Int32))()
	}
	if _, ok := Pinned()[k]; !ok || builds.Load() != 1 {
		t.Fatalf("recently used key evicted (%d builds)", builds.Load())
	}
	for i := range memoMax {
		layoutFor(testKey{n: 1, seed: memoMax + i}, new(atomic.Int32))()
	}
	if _, ok := Pinned()[k]; ok || len(Pinned()) != memoMax {
		t.Fatalf("key survived memoMax newer keys; %d pinned", len(Pinned()))
	}
	get()
	if _, ok := Pinned()[k]; !ok || builds.Load() != 2 {
		t.Fatalf("evicted key: %d builds, pinned %v; want 2 builds, pinned", builds.Load(), ok)
	}
}

// TestSharedConcurrent starts 16 callers of one key at once (run it
// under -race): the key is built exactly once, and every caller gets a
// fork that reads and writes its own copy.
func TestSharedConcurrent(t *testing.T) {
	Reset()
	defer Reset()
	k := testKey{n: 3*pageLen + 1, seed: 3}
	var builds atomic.Int32
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range 16 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			l := layoutFor(k, &builds)()
			want := k.want()
			for i := g; i < k.n; i += 97 {
				l.t.Set(i, uint32(g))
				want[i] = uint32(g)
			}
			for i, w := range want {
				if got := l.t.At(i); got != w {
					t.Errorf("goroutine %d: element %d = %d, want %d", g, i, got, w)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("16 concurrent callers built the layout %d times, want 1", n)
	}
	want := testLayout{filled(k.want())}
	if Pinned()[k].Sum() != want.Sum() {
		t.Error("pinned layout changed")
	}
}

// TestSharedBuildPanics pins the failure path: a build that panics pins
// nothing, and a later caller of the key still gets the right layout.
func TestSharedBuildPanics(t *testing.T) {
	Reset()
	defer Reset()
	k := testKey{n: 4, seed: 1}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panicking build did not panic")
			}
		}()
		Shared(k, func() testLayout { panic("bad geometry") })
	}()
	if len(Pinned()) != 0 {
		t.Fatal("failed build pinned a layout")
	}
	l := layoutFor(k, new(atomic.Int32))()
	check(t, "after failed build", &l.t, k.want())
}

// TestSharedCountsWaits checks the memo's counters: a key's pinning
// build counts once, and a caller that arrives while it runs counts one
// blocking wait covering the time it blocked.
func TestSharedCountsWaits(t *testing.T) {
	Reset()
	defer Reset()
	k := testKey{n: 8, seed: 2}
	before := ReadStats()
	release, started := make(chan struct{}), make(chan struct{})
	go func() {
		<-started
		time.Sleep(100 * time.Millisecond)
		close(release)
	}()
	done := make(chan testLayout)
	go func() {
		done <- Shared(k, func() testLayout {
			close(started)
			<-release
			return testLayout{filled(k.want())}
		})
	}()
	<-started
	waiter := Shared(k, func() testLayout {
		t.Error("a caller of a key being built built it again")
		return testLayout{}
	})
	pinned := <-done
	if waiter.Sum() != pinned.Sum() {
		t.Fatal("the waiting caller got another layout")
	}
	got := ReadStats()
	if got.Builds-before.Builds != 1 || got.Waits-before.Waits != 1 {
		t.Fatalf("%d builds, %d waits; want 1 and 1", got.Builds-before.Builds, got.Waits-before.Waits)
	}
	if got.Wait-before.Wait <= 0 {
		t.Fatalf("wait time %v, want > 0", got.Wait-before.Wait)
	}
	Shared(k, func() testLayout { return testLayout{} })
	if after := ReadStats(); after != got {
		t.Fatalf("a caller of a pinned key changed the counters: %+v -> %+v", got, after)
	}
}

// TestTouchKeepsKey checks that touching a key the memo holds makes it
// the most recently used, so the next new key evicts the other one, and
// that touching an absent key changes nothing.
func TestTouchKeepsKey(t *testing.T) {
	Reset()
	defer Reset()
	var builds atomic.Int32
	a, b := testKey{n: 1, seed: 1}, testKey{n: 1, seed: 2}
	layoutFor(a, &builds)()
	layoutFor(b, new(atomic.Int32))()
	Touch(a)
	Touch(testKey{n: 1, seed: 3})
	layoutFor(testKey{n: 1, seed: 4}, new(atomic.Int32))()
	pinned := Pinned()
	if _, ok := pinned[a]; !ok {
		t.Fatal("the touched key was evicted")
	}
	if _, ok := pinned[b]; ok || len(pinned) != memoMax {
		t.Fatalf("%d keys pinned, the untouched key among them: %v", len(pinned), ok)
	}
	layoutFor(a, &builds)()
	if builds.Load() != 1 {
		t.Fatalf("the touched key was built %d times, want 1", builds.Load())
	}
}
