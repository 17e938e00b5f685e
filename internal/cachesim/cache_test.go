package cachesim

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"hybridmem/internal/memtypes"
)

func TestMissThenHit(t *testing.T) {
	c := New(1<<14, 4, 64)
	if hit, _, _ := c.Access(0x1000, false); hit {
		t.Fatal("cold access hit")
	}
	if hit, _, _ := c.Access(0x1000, false); !hit {
		t.Fatal("second access missed")
	}
	if hit, _, _ := c.Access(0x1008, false); !hit {
		t.Fatal("same-line access missed")
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way, line 64, sets = 2: addresses 0, 256, 512 map to set 0.
	c := New(256, 2, 64)
	c.Access(0, false)
	c.Access(256, false)
	c.Access(0, false) // make 256 the LRU way
	_, v, ev := c.Access(512, false)
	if !ev || v.Addr != 256 {
		t.Fatalf("expected eviction of 256, got evicted=%v addr=%#x", ev, v.Addr)
	}
	if hit, _, _ := c.Access(0, false); !hit {
		t.Fatal("MRU line 0 was evicted")
	}
}

func TestDirtyVictim(t *testing.T) {
	c := New(256, 2, 64)
	c.Access(0, true)
	c.Access(256, false)
	c.Access(512, false) // evicts 0 (LRU), which is dirty
	c.Access(768, false) // evicts 256, clean
	// Reconstruct via another round: directly check returned victims.
	c2 := New(256, 2, 64)
	c2.Access(0, true)
	c2.Access(256, false)
	_, v, ev := c2.Access(512, false)
	if !ev || !v.Dirty || v.Addr != 0 {
		t.Fatalf("want dirty victim 0, got %+v ev=%v", v, ev)
	}
}

func TestWriteHitSetsDirty(t *testing.T) {
	c := New(256, 2, 64)
	c.Access(0, false)
	c.Access(0, true) // write hit marks dirty
	c.Access(256, false)
	_, v, ev := c.Access(512, false)
	if !ev || !v.Dirty {
		t.Fatalf("write hit did not mark line dirty: %+v", v)
	}
}

// contains reports whether addr is resident, without touching recency.
func (c *Cache) contains(addr memtypes.Addr) bool {
	blk := uint64(addr) >> c.setShift
	set := int(blk & c.setMask)
	tag := blk >> c.setBits
	base := set * c.assoc
	for m := c.valid[set]; m != 0; m &= m - 1 {
		if c.tags[base+bits.TrailingZeros64(m)] == tag {
			return true
		}
	}
	return false
}

func TestContains(t *testing.T) {
	c := New(1<<13, 8, 64)
	c.Access(0x40, false)
	if !c.contains(0x40) || !c.contains(0x7f) {
		t.Fatal("resident line not found")
	}
	if c.contains(0x80) {
		t.Fatal("phantom residency")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, g := range [][3]int{{0, 4, 64}, {100, 4, 64}, {1 << 14, 4, 60}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("geometry %v did not panic", g)
				}
			}()
			New(g[0], g[1], g[2])
		}()
	}
}

func TestWorkingSetFitsNoCapacityMisses(t *testing.T) {
	c := New(1<<16, 16, 64) // 64 KB
	// Touch 32 KB twice: second pass must be all hits.
	for pass := 0; pass < 2; pass++ {
		for a := memtypes.Addr(0); a < 32*1024; a += 64 {
			c.Access(a, false)
		}
	}
	if c.Misses != 32*1024/64 {
		t.Fatalf("misses=%d, want exactly one per line", c.Misses)
	}
}

func TestEvictionConservationProperty(t *testing.T) {
	// Property: resident lines = misses - evictions; victims are always
	// distinct from the line just inserted.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(1<<12, 4, 64) // small: 4 KB to force evictions
		resident := make(map[memtypes.Addr]bool)
		for i := 0; i < 2000; i++ {
			addr := memtypes.Addr(rng.Intn(1<<16)) &^ 63
			hit, v, ev := c.Access(addr, rng.Intn(2) == 0)
			if hit != resident[addr] {
				return false
			}
			if ev {
				if !resident[v.Addr] || v.Addr == addr {
					return false
				}
				delete(resident, v.Addr)
			}
			resident[addr] = true
		}
		return uint64(len(resident)) == c.Misses-c.Evicts
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
