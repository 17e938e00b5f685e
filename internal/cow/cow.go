// Package cow holds the copy-on-write tables and the memo of initial
// layouts that design constructors share.
//
// Several design families start every run from an initial layout that is
// a pure function of (seed, geometry): Hybrid2's remap and inverted remap
// tables, the remap and owner tables of the migcommon space (MPOD, LGM)
// and CAMEO's congruence-group slots. These tables have up to millions of
// entries, yet a short run writes a handful of them, so allocating,
// shuffling or copying them for every run made construction dominate
// screening-fidelity design-space searches.
//
// A Table is a fixed-length array split into pages of pageLen elements.
// Fork copies only the page pointers; the first write to a page still
// shared with the parent copies just that page. Shared builds a layout
// once per key and returns the pinned layout, which callers fork, so a
// build costs O(pages) and a run copies only the pages it writes, while
// every read sees exactly the values a private table would hold. A
// caller may keep the pristine layout it forked and fork it again for a
// later run of the same key, without asking the memo: a fork already
// references every page of its parent, so keeping the parent pins no
// extra memory. A periodic layout (CAMEO's) needs no memo: Repeat builds
// it in O(pages) from one period, sharing the pages that have equal
// contents.
//
// The memo pins a layout at its key's first sighting and returns it to
// every caller, the first included; concurrent callers of a key wait for
// its one pinning build instead of repeating it, so every key is built
// once for as long as it stays in the memo. A one-off key, such as a cold
// server request's seed, costs the same single build and stays resident
// only until newer keys evict it. At most memoMax keys are pinned, the
// least recently used evicted first, which is enough for the repeats that
// matter: the same placement serves every workload of a sweep or search
// candidate, and every design variant that shares its geometry. Callers
// that can name the key before building (see design.Info.LayoutKey)
// schedule runs of one key together, so a key's second caller rarely
// arrives while its build is still running, and Touch the keys they are
// about to use, so that a build evicts a key they do not need first.
// ReadStats counts the builds and the blocking waits.
package cow

import (
	"hash/maphash"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

const (
	pageShift = 10
	pageLen   = 1 << pageShift
	pageMask  = pageLen - 1

	// memoMax bounds the keys the memo tracks. More keys pin more
	// layouts, and each pinned layout is resident memory for as long as
	// it stays in the memo.
	memoMax = 2
)

// Table is a fixed-length array of T stored in pages. The zero Table has
// length zero.
type Table[T comparable] struct {
	pages []*[pageLen]T
	// shared holds the parent's page pointers for a fork (nil for a
	// private table): a page of pages still equal to its entry here is
	// read-only.
	shared []*[pageLen]T
	n      int
}

// Make returns a private table of n zero elements and the flat slice, of
// length n, that backs its pages. The caller fills the slice before the
// table is read or shared.
func Make[T comparable](n int) (Table[T], []T) {
	np := (n + pageMask) >> pageShift
	flat := make([]T, np<<pageShift)
	pages := make([]*[pageLen]T, np)
	for p := range pages {
		pages[p] = (*[pageLen]T)(flat[p<<pageShift:])
	}
	return Table[T]{pages: pages, n: n}, flat[:n]
}

// Repeat returns a table of n elements where element i is
// pattern[i%len(pattern)]. Pages with equal contents share one read-only
// copy, so the table costs at most len(pattern) pages however long it
// is; as in a fork, the first write to a page copies it.
func Repeat[T comparable](n int, pattern []T) Table[T] {
	pages := make([]*[pageLen]T, (n+pageMask)>>pageShift)
	byPhase := make([]*[pageLen]T, len(pattern))
	for p := range pages {
		phase := (p << pageShift) % len(pattern)
		if byPhase[phase] == nil {
			pg := new([pageLen]T)
			for i := range pg {
				pg[i] = pattern[(phase+i)%len(pattern)]
			}
			byPhase[phase] = pg
		}
		pages[p] = byPhase[phase]
	}
	return Table[T]{pages: pages, shared: slices.Clone(pages), n: n}
}

// Len returns the number of elements.
func (t *Table[T]) Len() int { return t.n }

// At returns element i.
func (t *Table[T]) At(i int) T {
	if uint(i) >= uint(t.n) {
		panic("cow: index out of range")
	}
	return t.pages[i>>pageShift][i&pageMask]
}

// Set stores v at element i, first copying the page if it is shared.
func (t *Table[T]) Set(i int, v T) {
	if uint(i) >= uint(t.n) {
		panic("cow: index out of range")
	}
	p := i >> pageShift
	pg := t.pages[p]
	if t.shared != nil && pg == t.shared[p] {
		pg = t.own(p)
	}
	pg[i&pageMask] = v
}

// own replaces shared page p by a private copy.
func (t *Table[T]) own(p int) *[pageLen]T {
	pg := new([pageLen]T)
	*pg = *t.pages[p]
	t.pages[p] = pg
	return pg
}

// Fork returns a table that reads as t and copies each page on its first
// write. t itself must not be written afterwards; the memo's layouts
// never are.
func (t Table[T]) Fork() Table[T] {
	return Table[T]{pages: slices.Clone(t.pages), shared: t.pages, n: t.n}
}

// Sum returns a checksum of the elements under a per-process seed.
func (t Table[T]) Sum() uint64 {
	var h maphash.Hash
	h.SetSeed(sumSeed)
	for i := range t.n {
		maphash.WriteComparable(&h, t.pages[i>>pageShift][i&pageMask])
	}
	return h.Sum64()
}

var sumSeed = maphash.MakeSeed()

// Shuffle permutes s with the seeded Fisher-Yates shuffle (xorshift64*
// draws) that every random initial placement uses, so that a placement
// depends on nothing but its seed and geometry.
func Shuffle[T any](s []T, seed uint64) {
	rng := seed | 1
	for i := len(s) - 1; i > 0; i-- {
		rng ^= rng >> 12
		rng ^= rng << 25
		rng ^= rng >> 27
		j := int((rng * 0x2545F4914F6CDD1D) % uint64(i+1))
		s[i], s[j] = s[j], s[i]
	}
}

// Layout is a family's set of initial tables, built together from one
// key.
type Layout[V any] interface {
	// Fork returns a copy-on-write view of every table (see Table.Fork).
	Fork() V
	// Sum returns a checksum of every table's contents.
	Sum() uint64
}

type entry struct {
	key any
	// built is closed once layout is set (or its build failed).
	built  chan struct{}
	layout interface{ Sum() uint64 }
}

var (
	memoMu sync.Mutex
	memo   []*entry // least recently used first
	// requests counts Shared calls and lastKey is the latest one's key,
	// for LastRequest.
	requests int64
	lastKey  any
)

// Shared returns the pinned initial layout for key, which build must
// compute as a pure function of key. The layout is read-only: callers
// Fork it and write only the fork. The first sighting of a key builds and
// pins the layout; every later caller, including one that arrives while
// the build is running, gets the same layout without building. Keys must
// be comparable values whose type identifies the family, so keys of
// different families never collide.
func Shared[V Layout[V]](key any, build func() V) V {
	memoMu.Lock()
	requests++
	lastKey = key
	e := use(key)
	if e == nil {
		e = &entry{key: key, built: make(chan struct{})}
		if len(memo) >= memoMax {
			memo = slices.Delete(memo, 0, 1)
		}
		memo = append(memo, e)
		memoMu.Unlock()
		return pin(e, build)
	}
	memoMu.Unlock()
	// The layout is set before built is closed.
	select {
	case <-e.built:
	default:
		t0 := time.Now()
		<-e.built
		waits.Add(1)
		waitNanos.Add(int64(time.Since(t0)))
	}
	if e.layout == nil {
		builds.Add(1)
		return build()
	}
	return e.layout.(V)
}

// Touch makes key, when the memo holds it, the most recently used, so
// that newer keys evict the others first.
func Touch(key any) {
	memoMu.Lock()
	defer memoMu.Unlock()
	use(key)
}

// use returns key's entry, made the most recently used, or nil when the
// memo does not hold key. memoMu must be held.
func use(key any) *entry {
	i := slices.IndexFunc(memo, func(m *entry) bool { return m.key == key })
	if i < 0 {
		return nil
	}
	e := memo[i]
	memo = append(slices.Delete(memo, i, i+1), e)
	return e
}

// pin builds e's layout and publishes it. A build that panics leaves no
// layout, and later callers of the key build privately.
func pin[V Layout[V]](e *entry, build func() V) V {
	defer close(e.built)
	builds.Add(1)
	v := build()
	memoMu.Lock()
	e.layout = v
	memoMu.Unlock()
	return v
}

// The memo's work over the process's lifetime, for ReadStats.
var builds, waits, waitNanos atomic.Int64

// Stats is the memo's work since the process started.
type Stats struct {
	// Builds counts layout builds: one per key sighted while not in the
	// memo, plus private builds after a failed one.
	Builds int64
	// Waits counts callers that blocked on another caller's build of
	// their key, and Wait is their total blocked time.
	Waits int64
	Wait  time.Duration
}

// ReadStats returns the memo's counters. They only grow; Reset leaves
// them as they are.
func ReadStats() Stats {
	return Stats{Builds: builds.Load(), Waits: waits.Load(), Wait: time.Duration(waitNanos.Load())}
}

// LastRequest returns the number of Shared calls so far and the key of
// the latest one (nil before the first), so tests can check which key a
// constructor requests.
func LastRequest() (n int64, key any) {
	memoMu.Lock()
	defer memoMu.Unlock()
	return requests, lastKey
}

// Pinned returns the layouts the memo pins, by key, so tests can
// checksum them before and after runs that share them.
func Pinned() map[any]interface{ Sum() uint64 } {
	memoMu.Lock()
	defer memoMu.Unlock()
	out := make(map[any]interface{ Sum() uint64 }, len(memo))
	for _, e := range memo {
		if e.layout != nil {
			out[e.key] = e.layout
		}
	}
	return out
}

// Reset forgets every key, so the next build of each is a first
// sighting. Tests use it to obtain fresh reference builds.
func Reset() {
	memoMu.Lock()
	memo = nil
	memoMu.Unlock()
}
