package cachesim

import (
	"math/bits"
	"math/rand"
	"testing"

	"hybridmem/internal/memtypes"
)

// stampCache is the LRU-stamp cache the recency list replaced, kept
// verbatim as a reference model: every way carries the clock value of
// its last touch, and a full-set miss scans the set for the
// lowest-indexed way with the minimum stamp.
type stampCache struct {
	tags     []uint64
	lrus     []uint64
	valid    []uint64
	dirty    []uint64
	assoc    int
	setShift uint
	setBits  uint
	setMask  uint64
	fullMask uint64
	clock    uint64

	Accesses uint64
	Misses   uint64
	Evicts   uint64
}

func (c *stampCache) Reset(sizeBytes, assoc, lineBytes int) {
	sets := sizeBytes / (assoc * lineBytes)
	shift := uint(bits.TrailingZeros(uint(lineBytes)))
	fullMask := ^uint64(0)
	if assoc < 64 {
		fullMask = 1<<uint(assoc) - 1
	}
	*c = stampCache{
		tags:     resize(c.tags, sets*assoc),
		lrus:     resize(c.lrus, sets*assoc),
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

func (c *stampCache) Access(addr memtypes.Addr, write bool) (hit bool, victim Victim, evicted bool) {
	c.Accesses++
	c.clock++
	blk := uint64(addr) >> c.setShift
	set := int(blk & c.setMask)
	tag := blk >> c.setBits
	base := set * c.assoc
	vm := c.valid[set]
	for m := vm; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if c.tags[base+i] == tag {
			c.lrus[base+i] = c.clock
			if write {
				c.dirty[set] |= 1 << uint(i)
			}
			return true, Victim{}, false
		}
	}

	c.Misses++
	var idx int
	if vm != c.fullMask {
		idx = bits.TrailingZeros64(^vm)
	} else {
		idx = 0
		for i := 1; i < c.assoc; i++ {
			if c.lrus[base+i] < c.lrus[base+idx] {
				idx = i
			}
		}
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
	c.lrus[base+idx] = c.clock
	return false, victim, evicted
}

// TestRecencyListMatchesStampModel drives one Cache and one stampCache
// through the same fixed-seed geometries, Resets and access streams. Hit,
// victim and eviction must agree on every access and the counters at
// every Reset. Footprints range from a fraction of the cache to several
// times it, and a hot subset of lines is re-touched so hits reorder the
// recency lists between evictions.
func TestRecencyListMatchesStampModel(t *testing.T) {
	type geom struct{ sets, assoc, line int }
	var geoms []geom
	for _, assoc := range []int{1, 2, 4, 16, 64} {
		for _, line := range []int{64, 128} {
			for _, sets := range []int{1, 8, 64} {
				geoms = append(geoms, geom{sets, assoc, line})
			}
		}
	}
	rng := rand.New(rand.NewSource(15))
	got, want := new(Cache), new(stampCache)
	for round := range 200 {
		g := geoms[rng.Intn(len(geoms))]
		size := g.sets * g.assoc * g.line
		got.Reset(size, g.assoc, g.line)
		want.Reset(size, g.assoc, g.line)
		lines := int64(size/g.line) * int64(1+rng.Intn(6)) / int64(1+rng.Intn(4))
		hot := 1 + lines/8
		for i := range 3000 {
			line := rng.Int63n(lines + 1)
			if rng.Intn(2) == 0 {
				line = rng.Int63n(hot)
			}
			addr := memtypes.Addr(line*int64(g.line) + rng.Int63n(int64(g.line)))
			write := rng.Intn(3) == 0
			gh, gv, ge := got.Access(addr, write)
			wh, wv, we := want.Access(addr, write)
			if gh != wh || gv != wv || ge != we {
				t.Fatalf("round %d %+v access %d (%#x): list (%v %+v %v), stamps (%v %+v %v)",
					round, g, i, addr, gh, gv, ge, wh, wv, we)
			}
		}
		if got.Accesses != want.Accesses || got.Misses != want.Misses || got.Evicts != want.Evicts {
			t.Fatalf("round %d %+v: list counters %d/%d/%d, stamps %d/%d/%d", round, g,
				got.Accesses, got.Misses, got.Evicts, want.Accesses, want.Misses, want.Evicts)
		}
	}
}
