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
// once per key and hands each caller a fork, so a build costs
// O(pages) and a run copies only the pages it writes, while every read
// sees exactly the values a private table would hold. A periodic layout
// (CAMEO's) needs no memo: Repeat builds it in O(pages) from one period,
// sharing the pages that have equal contents.
//
// The memo pins a layout only from its key's second sighting: a first
// sighting (a one-off seed, such as a cold server request) gets a private
// layout and pins nothing. At most memoMax keys are tracked, oldest
// evicted first, which is enough for the repeats that matter: the same
// placement serves every workload of a sweep or search candidate, and
// every design variant that shares its geometry.
package cow

import (
	"hash/maphash"
	"slices"
	"sync"
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
	// built is made at the key's second sighting and closed once layout
	// is set (or its build failed).
	built  chan struct{}
	layout interface{ Sum() uint64 }
}

var (
	memoMu sync.Mutex
	memo   []*entry // oldest first
)

// Shared returns the initial layout for key, which build must compute as
// a pure function of key. The first sighting of a key returns build()
// as is and pins nothing; the second builds the layout once and pins it,
// and every later caller gets a fork of it. Keys must be comparable
// values whose type identifies the family, so keys of different families
// never collide.
func Shared[V Layout[V]](key any, build func() V) V {
	memoMu.Lock()
	var e *entry
	for _, m := range memo {
		if m.key == key {
			e = m
			break
		}
	}
	switch {
	case e == nil:
		if len(memo) >= memoMax {
			memo = slices.Delete(memo, 0, 1)
		}
		memo = append(memo, &entry{key: key})
		memoMu.Unlock()
		return build()
	case e.built == nil:
		e.built = make(chan struct{})
		memoMu.Unlock()
		return pin(e, build).Fork()
	}
	built := e.built
	memoMu.Unlock()
	// Wait for the pinning build rather than repeat it: the layout is set
	// before built is closed.
	<-built
	if e.layout == nil {
		return build()
	}
	return e.layout.(V).Fork()
}

// pin builds e's layout and publishes it.
func pin[V Layout[V]](e *entry, build func() V) V {
	defer close(e.built)
	v := build()
	memoMu.Lock()
	e.layout = v
	memoMu.Unlock()
	return v
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
// sighting. Tests use it to obtain private reference builds.
func Reset() {
	memoMu.Lock()
	memo = nil
	memoMu.Unlock()
}
