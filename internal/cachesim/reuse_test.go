package cachesim

import (
	"math/rand"
	"testing"

	"hybridmem/internal/memtypes"
)

// TestReuseMatchesFresh drives one cache through a fixed-seed sequence of
// geometries, growing and shrinking, resetting it between them. After
// every Reset it must answer a random access stream exactly as a new
// cache of that geometry does: hit, victim and eviction per access, and
// the counters at the end.
func TestReuseMatchesFresh(t *testing.T) {
	type geom struct{ size, assoc, line int }
	geoms := []geom{
		{1 << 14, 4, 64}, {1 << 12, 2, 64}, {1 << 16, 16, 64}, {1 << 14, 4, 64},
		{1 << 13, 8, 128}, {1 << 15, 64, 64}, {1 << 11, 1, 64}, {1 << 16, 16, 64},
	}
	rng := rand.New(rand.NewSource(7))
	reused := new(Cache)
	for round := range 24 {
		g := geoms[rng.Intn(len(geoms))]
		reused.Reset(g.size, g.assoc, g.line)
		fresh := New(g.size, g.assoc, g.line)
		// Footprints from a few times the cache down to a fraction of it,
		// so some rounds fill every set and some touch only a few.
		span := int64(g.size) * int64(1+rng.Intn(4)) / int64(1+rng.Intn(8))
		for i := range 2000 {
			addr := memtypes.Addr(rng.Int63n(span))
			write := rng.Intn(3) == 0
			fh, fv, fe := fresh.Access(addr, write)
			rh, rv, re := reused.Access(addr, write)
			if fh != rh || fv != rv || fe != re {
				t.Fatalf("round %d %v access %d (%#x): reused (%v %+v %v), fresh (%v %+v %v)",
					round, g, i, addr, rh, rv, re, fh, fv, fe)
			}
		}
		if fresh.Accesses != reused.Accesses || fresh.Misses != reused.Misses || fresh.Evicts != reused.Evicts {
			t.Fatalf("round %d %v: reused counters %d/%d/%d, fresh %d/%d/%d", round, g,
				reused.Accesses, reused.Misses, reused.Evicts, fresh.Accesses, fresh.Misses, fresh.Evicts)
		}
	}
}

// TestReuseRejectsBadGeometry checks that Reset validates like New and
// leaves the cache untouched when it refuses.
func TestReuseRejectsBadGeometry(t *testing.T) {
	c := New(1<<14, 4, 64)
	c.Access(0x40, true)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Reset accepted a non-power-of-two set count")
			}
		}()
		c.Reset(3*4*64, 4, 64)
	}()
	if !c.contains(0x40) || c.Accesses != 1 {
		t.Fatal("a refused Reset changed the cache")
	}
}
