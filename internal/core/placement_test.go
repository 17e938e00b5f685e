package core

import (
	"testing"

	"hybridmem/internal/config"
	"hybridmem/internal/cow"
	"hybridmem/internal/memsys"
)

// refPlacement is the flat Fisher-Yates placement New built into private
// slices before initial layouts were shared through cow: the reference
// the shared tables must match element for element.
func refPlacement(seed uint64, flat, fmSec, cacheSlots uint32, remap []loc, invRemap []uint32) {
	for i := range invRemap {
		invRemap[i] = invalidLogical
	}
	perm := make([]uint32, uint64(flat)+uint64(fmSec))
	for i := range perm {
		perm[i] = uint32(i)
	}
	rng := seed | 1
	for i := len(perm) - 1; i > 0; i-- {
		rng ^= rng >> 12
		rng ^= rng << 25
		rng ^= rng >> 27
		j := int((rng * 0x2545F4914F6CDD1D) % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for logical, phys := range perm {
		if phys < flat {
			// Flat NM slots occupy pool indices [cacheSlots, pool).
			slot := cacheSlots + phys
			remap[logical] = loc{nm: true, idx: slot}
			invRemap[slot] = uint32(logical)
		} else {
			remap[logical] = loc{nm: false, idx: phys - flat}
		}
	}
}

// refCacheOnly is the reference CacheOnly layout: every sector in FM at
// its home, no NM slot owned.
func refCacheOnly(fmSec uint32, remap []loc, invRemap []uint32) {
	for i := range invRemap {
		invRemap[i] = invalidLogical
	}
	for l := range remap {
		remap[l] = loc{nm: false, idx: uint32(l) % fmSec}
	}
}

func (k placementKey) reference() ([]loc, []uint32) {
	remap := make([]loc, int(k.flat)+int(k.fmSec))
	inv := make([]uint32, int(k.cacheSlots)+int(k.flat))
	if k.cacheOnly {
		refCacheOnly(k.fmSec, remap, inv)
	} else {
		refPlacement(k.seed, k.flat, k.fmSec, k.cacheSlots, remap, inv)
	}
	return remap, inv
}

func samePlacement(t *testing.T, what string, p placement, remap []loc, inv []uint32) {
	t.Helper()
	if p.remap.Len() != len(remap) || p.invRemap.Len() != len(inv) {
		t.Fatalf("%s: lengths %d/%d, want %d/%d", what, p.remap.Len(), p.invRemap.Len(), len(remap), len(inv))
	}
	// Decode the packed entries; the NM pool is the inverted table's length.
	h := &Hybrid2{remap: p.remap, poolSectors: uint32(len(inv))}
	for i, want := range remap {
		if got := h.lookup(uint32(i)); got != want {
			t.Fatalf("%s: remap[%d] = %+v, want %+v", what, i, got, want)
		}
	}
	for i, want := range inv {
		if got := p.invRemap.At(i); got != want {
			t.Fatalf("%s: invRemap[%d] = %d, want %d", what, i, got, want)
		}
	}
}

// TestPlacementMatchesReference pins the shared initial layouts (forks
// of the pinned build) to the flat reference for several seeds and
// geometries, including lengths that are not a multiple of the page size
// and the CacheOnly identity layout.
func TestPlacementMatchesReference(t *testing.T) {
	cow.Reset()
	defer cow.Reset()
	var keys []placementKey
	for _, g := range []struct{ flat, fmSec, cacheSlots uint32 }{
		{1, 1, 1},
		{100, 900, 16},
		{1023, 4097, 64},
		{5000, 20001, 512},
	} {
		for _, seed := range []uint64{0, 1, 7, 0x9E3779B97F4A7C15} {
			keys = append(keys, placementKey{seed: seed, flat: g.flat, fmSec: g.fmSec, cacheSlots: g.cacheSlots})
		}
		keys = append(keys, placementKey{flat: g.flat, fmSec: g.fmSec, cacheSlots: g.cacheSlots, cacheOnly: true})
	}
	for _, k := range keys {
		remap, inv := k.reference()
		for sighting := 1; sighting <= 3; sighting++ {
			samePlacement(t, "shared", cow.Shared(k, k.build), remap, inv)
		}
	}
}

// TestNewPlacementMatchesReference checks the placement New installs at
// the scaled system geometry, for the normal and CacheOnly modes.
func TestNewPlacementMatchesReference(t *testing.T) {
	sys := config.Scaled(16, 1)
	for _, mode := range []Mode{Normal, CacheOnly} {
		cfg := Default(sys.NMBytes, sys.FMBytes, sys.Hybrid2CacheBytes(), 11)
		cfg.Mode = mode
		for range 3 {
			h := New(cfg, memsys.New(memsys.HBM2Config()), memsys.New(memsys.DDR4Config()))
			k := placementKey{flat: h.flatSectors, fmSec: h.fmSectors, cacheSlots: uint32(len(h.entries)), cacheOnly: mode == CacheOnly}
			if mode != CacheOnly {
				k.seed = cfg.Seed
			}
			remap, inv := k.reference()
			samePlacement(t, mode.String(), placement{h.remap, h.invRemap}, remap, inv)
		}
	}
}
