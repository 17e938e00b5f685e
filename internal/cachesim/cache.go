// Package cachesim provides the set-associative write-back SRAM cache used
// as the shared last-level cache in front of the hybrid memory system
// (Table 1: 8 MB, 16-way, 14-cycle access, non-inclusive non-exclusive).
package cachesim

import (
	"math/bits"

	"hybridmem/internal/memtypes"
)

// Victim describes a line evicted by an allocation.
type Victim struct {
	Addr  memtypes.Addr // base address of the evicted line
	Dirty bool
}

// link is one way's place in its set's recency list.
type link struct{ prev, next uint8 }

// listEnds holds a set's least (head) and most (tail) recently used ways.
type listEnds struct{ head, tail uint8 }

// Cache is a single-level set-associative cache with true-LRU replacement
// and write-allocate/write-back policy. It is a functional model: timing
// is the caller's concern (the driver adds the fixed access latency).
//
// State is laid out struct-of-arrays: per-way tags and recency links in
// flat slices plus one valid/dirty bitmask word and one list head/tail
// pair per set, so a lookup touches a couple of cache lines instead of a
// line per way. Each set's valid ways form a doubly linked recency list
// from its LRU head to its MRU tail: a hit moves its way to the tail and
// a full-set miss evicts the head, both in O(1).
type Cache struct {
	tags     []uint64   // sets*assoc, indexed set*assoc+way
	links    []link     // sets*assoc, recency links of valid ways
	ends     []listEnds // per-set recency list ends, set by the first fill
	valid    []uint64   // per-set bitmask of valid ways
	dirty    []uint64   // per-set bitmask of dirty ways
	assoc    int
	setShift uint
	setBits  uint
	setMask  uint64
	fullMask uint64

	Accesses uint64
	Misses   uint64
	Evicts   uint64
}

// New builds a cache of sizeBytes capacity. sizeBytes must be a multiple
// of assoc*lineBytes, the resulting set count must be a power of two, and
// assoc must be at most 64 (one bitmask word per set).
func New(sizeBytes, assoc, lineBytes int) *Cache {
	c := new(Cache)
	c.Reset(sizeBytes, assoc, lineBytes)
	return c
}

// Reset returns c to the state New(sizeBytes, assoc, lineBytes) would
// return, keeping c's arrays when they are large enough, so one cache
// can serve consecutive runs. Tags and recency links are read only for
// ways whose valid bit is set, and a set's list ends are written by its
// first fill, so clearing the per-set valid and dirty words and the
// counters restores the pristine cache: the cost is one word pair per
// set, not a pass over every way. The geometry is checked as in New
// before c changes.
func (c *Cache) Reset(sizeBytes, assoc, lineBytes int) {
	if sizeBytes <= 0 || assoc <= 0 || lineBytes <= 0 {
		panic("cachesim: non-positive geometry")
	}
	if assoc > 64 {
		panic("cachesim: associativity above 64 not supported")
	}
	sets := sizeBytes / (assoc * lineBytes)
	if sets == 0 || sets&(sets-1) != 0 {
		panic("cachesim: set count must be a power of two")
	}
	shift := uint(0)
	for 1<<shift < lineBytes {
		shift++
	}
	if 1<<shift != lineBytes {
		panic("cachesim: line size must be a power of two")
	}
	fullMask := ^uint64(0)
	if assoc < 64 {
		fullMask = 1<<uint(assoc) - 1
	}
	*c = Cache{
		tags:     resize(c.tags, sets*assoc),
		links:    resize(c.links, sets*assoc),
		ends:     resize(c.ends, sets),
		valid:    resize(c.valid, sets),
		dirty:    resize(c.dirty, sets),
		assoc:    assoc,
		setShift: shift,
		setBits:  uint(bits.TrailingZeros(uint(sets))),
		setMask:  uint64(sets - 1),
		fullMask: fullMask,
	}
	clear(c.valid)
	clear(c.dirty)
}

// resize returns s with length n, reusing its backing array when it is
// large enough; elements are left as they were.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Access looks up addr, allocating on a miss. It returns whether the
// access hit and, on a miss that displaced a valid line, the victim.
//
// Replacement is true LRU: a miss fills the lowest-indexed invalid way
// while the set has one, and evicts the least recently used way once it
// is full.
func (c *Cache) Access(addr memtypes.Addr, write bool) (hit bool, victim Victim, evicted bool) {
	c.Accesses++
	blk := uint64(addr) >> c.setShift
	set := int(blk & c.setMask)
	tag := blk >> c.setBits
	base := set * c.assoc
	e := &c.ends[set]
	ln := c.links[base : base+c.assoc]
	vm := c.valid[set]
	for m := vm; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if c.tags[base+i] == tag {
			touch(e, ln, uint8(i))
			if write {
				c.dirty[set] |= 1 << uint(i)
			}
			return true, Victim{}, false
		}
	}

	c.Misses++
	var idx int
	switch {
	case vm == 0:
		// First fill of an empty set: the list is this way alone.
		idx = 0
		e.head, e.tail = 0, 0
	case vm != c.fullMask:
		idx = bits.TrailingZeros64(^vm)
		ln[idx].prev = e.tail
		ln[e.tail].next = uint8(idx)
		e.tail = uint8(idx)
	default:
		idx = int(e.head)
		touch(e, ln, e.head)
		c.Evicts++
		victimBlk := (c.tags[base+idx]<<c.setBits | uint64(set)) << c.setShift
		victim = Victim{Addr: memtypes.Addr(victimBlk), Dirty: c.dirty[set]&(1<<uint(idx)) != 0}
		evicted = true
	}
	c.valid[set] |= 1 << uint(idx)
	c.tags[base+idx] = tag
	if write {
		c.dirty[set] |= 1 << uint(idx)
	} else {
		c.dirty[set] &^= 1 << uint(idx)
	}
	return false, victim, evicted
}

// touch moves way w to the MRU end of the recency list with ends e and
// links ln, one set's slice of the per-way links.
func touch(e *listEnds, ln []link, w uint8) {
	if e.tail == w {
		return
	}
	l := ln[w]
	if e.head == w {
		// A head's prev link is never read, so its successor's is left.
		e.head = l.next
	} else {
		ln[l.prev].next = l.next
		ln[l.next].prev = l.prev
	}
	ln[w].prev = e.tail
	ln[e.tail].next = w
	e.tail = w
}
