package cameo

import "testing"

// refSlots is the flat slot pattern New built into a private slice before
// the slots became a copy-on-write table: the reference the table must
// match element for element.
func refSlots(groups, k uint32) []uint8 {
	slots := make([]uint8, uint64(groups)*uint64(k+1))
	for g := uint32(0); g < groups; g++ {
		base := uint64(g) * uint64(k+1)
		for j := uint32(1); j <= k; j++ {
			slots[base+uint64(j)] = uint8(j)
		}
	}
	return slots
}

// TestSlotsMatchReference pins the initial slot table to the flat
// reference for geometries whose length is not a multiple of the page
// size (k+1 = 9 and 3).
func TestSlotsMatchReference(t *testing.T) {
	for _, cfg := range []Config{
		Default(1<<20, 8<<20, 512, 1),
		Default(1<<20+64*5, 3<<20, 512, 2),
	} {
		c := New(cfg, nil, nil)
		want := refSlots(c.groups, c.k)
		if c.slots.Len() != len(want) {
			t.Fatalf("length %d, want %d", c.slots.Len(), len(want))
		}
		for i, w := range want {
			if got := c.slots.At(i); got != w {
				t.Fatalf("k=%d: slots[%d] = %d, want %d", c.k, i, got, w)
			}
		}
	}
}
