package cow

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
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

// layoutFor returns a Shared call for k that counts its builds.
func layoutFor(k testKey, builds *atomic.Int32) func() testLayout {
	return func() testLayout {
		return Shared(k, func() testLayout {
			builds.Add(1)
			return testLayout{filled(k.want())}
		})
	}
}

// TestSharedSightings pins the memo policy: a first sighting is private
// and pins nothing, the second pins the layout, later sightings fork it
// without building, and a key evicted by memoMax newer keys is a first
// sighting again.
func TestSharedSightings(t *testing.T) {
	Reset()
	defer Reset()
	k := testKey{n: 2*pageLen + 3, seed: 5}
	var builds atomic.Int32
	get := layoutFor(k, &builds)

	first := get()
	if builds.Load() != 1 || len(Pinned()) != 0 {
		t.Fatalf("first sighting: %d builds, %d pinned; want 1 build, none pinned", builds.Load(), len(Pinned()))
	}
	if first.t.shared != nil {
		t.Fatal("first sighting returned a fork, want a private table")
	}
	second := get()
	pinned, ok := Pinned()[k]
	if builds.Load() != 2 || !ok {
		t.Fatalf("second sighting: %d builds, pinned %v; want 2 builds, pinned", builds.Load(), ok)
	}
	sum := pinned.Sum()
	third := get()
	if builds.Load() != 2 {
		t.Fatal("third sighting rebuilt the layout")
	}
	for _, l := range []testLayout{first, second, third} {
		l.t.Set(0, 99)
		l.t.Set(k.n-1, 99)
	}
	if pinned.Sum() != sum {
		t.Fatal("writing to forks changed the pinned layout")
	}
	fresh := get()
	check(t, "fork after writes", &fresh.t, k.want())

	for i := range memoMax {
		layoutFor(testKey{n: 1, seed: i}, new(atomic.Int32))()
	}
	if _, ok := Pinned()[k]; ok {
		t.Fatal("key survived memoMax newer keys")
	}
	get()
	if builds.Load() != 3 || len(Pinned()) != 0 {
		t.Fatal("evicted key was not a first sighting again")
	}
}

// TestSharedConcurrent runs many callers of the same keys at once (run
// it under -race): each key is built exactly twice, once for its private
// first sighting and once to pin, and every fork reads and writes its
// own copy.
func TestSharedConcurrent(t *testing.T) {
	Reset()
	defer Reset()
	keys := []testKey{{n: 3*pageLen + 1, seed: 3}, {n: pageLen / 2, seed: 7}}
	builds := make([]atomic.Int32, len(keys))
	var wg sync.WaitGroup
	for g := range 16 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k := keys[g%len(keys)]
			l := layoutFor(k, &builds[g%len(keys)])()
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
	wg.Wait()
	for i, k := range keys {
		if n := builds[i].Load(); n != 2 {
			t.Errorf("key %v built %d times, want 2", k, n)
		}
		want := testLayout{filled(k.want())}
		if Pinned()[k].Sum() != want.Sum() {
			t.Errorf("key %v: pinned layout changed", k)
		}
	}
}
