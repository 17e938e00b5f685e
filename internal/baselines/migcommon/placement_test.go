package migcommon

import (
	"testing"

	"hybridmem/internal/cow"
)

// refPlacement is the flat Fisher-Yates placement NewSpace built into
// private slices before initial layouts were shared through cow: the
// reference the shared tables must match element for element.
func refPlacement(seed uint64, nmSec, fmSec uint32, remap []Loc, nmOwner, fmOwner []uint32) {
	total := nmSec + fmSec
	perm := make([]uint32, total)
	for i := range perm {
		perm[i] = uint32(i)
	}
	rng := seed | 1
	for i := total - 1; i > 0; i-- {
		rng ^= rng >> 12
		rng ^= rng << 25
		rng ^= rng >> 27
		j := uint32((rng * 0x2545F4914F6CDD1D) % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for logical, phys := range perm {
		if phys < nmSec {
			remap[logical] = Loc{NM: true, Idx: phys}
			nmOwner[phys] = uint32(logical)
		} else {
			remap[logical] = Loc{NM: false, Idx: phys - nmSec}
			fmOwner[phys-nmSec] = uint32(logical)
		}
	}
}

func sameTable(t *testing.T, what string, tab cow.Table[uint32], want []uint32) {
	t.Helper()
	if tab.Len() != len(want) {
		t.Fatalf("%s: length %d, want %d", what, tab.Len(), len(want))
	}
	for i, w := range want {
		if got := tab.At(i); got != w {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got, w)
		}
	}
}

// sameRemap decodes the packed remap entries of a space with nmSec NM
// sectors and compares them with want.
func sameRemap(t *testing.T, what string, tab cow.Table[uint32], nmSec uint32, want []Loc) {
	t.Helper()
	s := &Space{NMSectors: nmSec, remap: tab}
	if tab.Len() != len(want) {
		t.Fatalf("%s: length %d, want %d", what, tab.Len(), len(want))
	}
	for i, w := range want {
		if got := s.Lookup(uint32(i)); got != w {
			t.Fatalf("%s[%d] = %+v, want %+v", what, i, got, w)
		}
	}
}

// TestPlacementMatchesReference pins the shared initial layouts (forks
// of the pinned build, and the tables a NewSpace installs) to the flat
// reference for several seeds and geometries, including lengths that are
// not a multiple of the page size.
func TestPlacementMatchesReference(t *testing.T) {
	cow.Reset()
	defer cow.Reset()
	for _, g := range []struct{ nmSec, fmSec uint32 }{
		{1, 1},
		{100, 900},
		{1023, 4097},
		{512, 4096},
	} {
		for _, seed := range []uint64{0, 1, 7, 0x9E3779B97F4A7C15} {
			remap := make([]Loc, g.nmSec+g.fmSec)
			nmOwner := make([]uint32, g.nmSec)
			fmOwner := make([]uint32, g.fmSec)
			refPlacement(seed, g.nmSec, g.fmSec, remap, nmOwner, fmOwner)
			k := placementKey{seed, g.nmSec, g.fmSec}
			for sighting := 1; sighting <= 3; sighting++ {
				p := cow.Shared(k, k.build)
				sameRemap(t, "remap", p.remap, g.nmSec, remap)
				sameTable(t, "nmOwner", p.nmOwner, nmOwner)
				sameTable(t, "fmOwner", p.fmOwner, fmOwner)
			}
			if g.nmSec == 512 {
				s, _ := newSpace(seed) // 512 NM and 4096 FM sectors
				sameRemap(t, "space remap", s.remap, g.nmSec, remap)
				sameTable(t, "space nmOwner", s.nmOwner, nmOwner)
				sameTable(t, "space fmOwner", s.fmOwner, fmOwner)
			}
		}
	}
}
