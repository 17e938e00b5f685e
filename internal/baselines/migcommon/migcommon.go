// Package migcommon holds the substrate shared by the flat-address-space
// migration schemes (MemPod, Chameleon, LGM): the sector-granularity
// remap table over NM+FM, its inverted counterpart, the on-chip remap
// cache (sized equal to Hybrid2's XTA for the paper's fair comparison),
// and the swap operation that exchanges an FM sector with an NM victim.
package migcommon

import (
	"hybridmem/internal/cow"
	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
)

// Loc is the physical location of a logical sector, as Lookup decodes it.
type Loc struct {
	NM  bool
	Idx uint32 // slot index within the device's sector array
}

// Space is a flat NM+FM address space with all-to-all sector remapping.
// Logical sector s of the processor physical address space lives at
// Lookup(s); the owner tables map physical slots back to logical sectors.
type Space struct {
	SectorBytes int
	NMSectors   uint32
	FMSectors   uint32

	remap   cow.Table[uint32] // logical sector -> packed location (see Lookup)
	nmOwner cow.Table[uint32] // NM slot -> logical sector
	fmOwner cow.Table[uint32] // FM slot -> logical sector

	nm, fm *memsys.Device
	stats  *memtypes.MemStats

	// remapTableBase addresses the in-NM remap table for metadata traffic.
	remapTableBase memtypes.Addr
}

// NewSpace builds the space with the paper's initial page placement:
// logical sectors are distributed randomly over NM and FM proportionally
// to their capacities (§4, "memory pages are allocated randomly ...").
// The permutation is derived from seed, so runs are reproducible.
func NewSpace(sectorBytes int, nmBytes, fmBytes uint64, nm, fm *memsys.Device, stats *memtypes.MemStats, seed uint64) *Space {
	k := placementKeyOf(sectorBytes, nmBytes, fmBytes, seed)
	s := &Space{
		SectorBytes:    sectorBytes,
		NMSectors:      k.nmSec,
		FMSectors:      k.fmSec,
		nm:             nm,
		fm:             fm,
		stats:          stats,
		remapTableBase: memtypes.Addr(nmBytes) - memtypes.Addr(k.nmSec+k.fmSec)*8,
	}
	p := cow.Shared(k, k.build).Fork()
	s.remap, s.nmOwner, s.fmOwner = p.remap, p.nmOwner, p.fmOwner
	return s
}

// LayoutKey returns the cow.Shared key under which NewSpace, given the
// same arguments, requests its initial placement: the LayoutKey of the
// families built on a Space (see design.Info).
func LayoutKey(sectorBytes int, nmBytes, fmBytes uint64, seed uint64) any {
	return placementKeyOf(sectorBytes, nmBytes, fmBytes, seed)
}

// placementKey identifies an initial placement.
type placementKey struct {
	seed  uint64
	nmSec uint32
	fmSec uint32
}

// placementKeyOf returns the key of NewSpace's placement for its
// arguments.
func placementKeyOf(sectorBytes int, nmBytes, fmBytes uint64, seed uint64) placementKey {
	return placementKey{seed, uint32(nmBytes / uint64(sectorBytes)), uint32(fmBytes / uint64(sectorBytes))}
}

// placement is the initial remap/owner triple, shared through cow.
type placement struct {
	remap   cow.Table[uint32]
	nmOwner cow.Table[uint32]
	fmOwner cow.Table[uint32]
}

// Fork and Sum implement cow.Layout.
func (p placement) Fork() placement {
	return placement{p.remap.Fork(), p.nmOwner.Fork(), p.fmOwner.Fork()}
}

func (p placement) Sum() uint64 {
	return (p.remap.Sum()*31+p.nmOwner.Sum())*31 + p.fmOwner.Sum()
}

// build computes the placement: a seeded Fisher-Yates shuffle of the
// physical slots over the logical sectors. In the packed encoding (see
// Lookup) physical index p is stored as p itself.
func (k placementKey) build() placement {
	remap, r := cow.Make[uint32](int(k.nmSec) + int(k.fmSec))
	nmOwner, nmo := cow.Make[uint32](int(k.nmSec))
	fmOwner, fmo := cow.Make[uint32](int(k.fmSec))
	for phys := range r {
		r[phys] = uint32(phys)
	}
	cow.Shuffle(r, k.seed)
	for logical, v := range r {
		if v < k.nmSec {
			nmo[v] = uint32(logical)
		} else {
			fmo[v-k.nmSec] = uint32(logical)
		}
	}
	return placement{remap, nmOwner, fmOwner}
}

// Sectors returns the number of logical sectors in the flat space.
func (s *Space) Sectors() uint32 { return s.NMSectors + s.FMSectors }

// Lookup returns the physical location of a logical sector. A remap
// entry packs a location into 4 bytes: a value below NMSectors is that NM
// slot, any other value v is FM slot v - NMSectors.
func (s *Space) Lookup(logical uint32) Loc {
	v := s.remap.At(int(logical))
	if v < s.NMSectors {
		return Loc{NM: true, Idx: v}
	}
	return Loc{NM: false, Idx: v - s.NMSectors}
}

// OwnerNM returns the logical sector stored in an NM slot.
func (s *Space) OwnerNM(slot uint32) uint32 { return s.nmOwner.At(int(slot)) }

// DataAddr returns the device byte address of a physical location.
func (s *Space) DataAddr(l Loc) memtypes.Addr {
	return memtypes.Addr(l.Idx) * memtypes.Addr(s.SectorBytes)
}

// AccessData performs a 64 B data access at the sector's current location
// and returns completion time, recording served-from counters.
func (s *Space) AccessData(now memtypes.Tick, logical uint32, offset memtypes.Addr, write bool) memtypes.Tick {
	l := s.Lookup(logical)
	addr := s.DataAddr(l) + offset
	if l.NM {
		s.stats.ServedNM++
		done := s.nm.Access(now, addr, 64, write)
		if write {
			s.stats.NMWriteBytes += 64
		} else {
			s.stats.NMReadBytes += 64
		}
		return done
	}
	s.stats.ServedFM++
	done := s.fm.Access(now, addr, 64, write)
	if write {
		s.stats.FMWriteBytes += 64
	} else {
		s.stats.FMReadBytes += 64
	}
	return done
}

// ReadRemapEntry models an in-NM remap-table read (remap-cache miss):
// one 64 B NM access on the critical path.
func (s *Space) ReadRemapEntry(now memtypes.Tick, logical uint32) memtypes.Tick {
	done := s.nm.Access(now, s.remapTableBase+memtypes.Addr(logical/8)*64, 64, false)
	s.stats.NMReadBytes += 64
	s.stats.MetaNMBytes += 64
	return done
}

// writeRemapEntry models a background remap-table update.
func (s *Space) writeRemapEntry(now memtypes.Tick, logical uint32) {
	s.nm.AccessBG(now, s.remapTableBase+memtypes.Addr(logical/8)*64, 64, true)
	s.stats.NMWriteBytes += 64
	s.stats.MetaNMBytes += 64
}

// Swap exchanges logical sector a (currently in FM) with the occupant of
// NM slot nmSlot. It charges the full data movement — read both sectors,
// write both sectors — plus the two remap-table updates, starting at now.
// fmSkipBytes reduces the FM->NM read (LGM's bandwidth economization for
// lines already present in the LLC). Returns the displaced logical sector.
func (s *Space) Swap(now memtypes.Tick, a uint32, nmSlot uint32, fmSkipBytes int) uint32 {
	va, la := s.remap.At(int(a)), s.Lookup(a)
	if la.NM {
		panic("migcommon: swap source already in NM")
	}
	b := s.nmOwner.At(int(nmSlot))
	lb := Loc{NM: true, Idx: nmSlot}

	sb := s.SectorBytes
	rdA := sb - fmSkipBytes
	if rdA < 0 {
		rdA = 0
	}
	// Read A from FM, read B from NM (can overlap), then write A to NM
	// and B to FM.
	tA := s.nm.AccessBG(now, s.DataAddr(lb), sb, false) // read victim B from NM
	tB := s.fm.AccessBG(now, s.DataAddr(la), rdA, false)
	end := tA
	if tB > end {
		end = tB
	}
	s.nm.AccessBG(end, s.DataAddr(lb), sb, true) // A into NM slot
	s.fm.AccessBG(end, s.DataAddr(la), sb, true) // B into A's old FM slot
	s.stats.NMReadBytes += uint64(sb)
	s.stats.FMReadBytes += uint64(rdA)
	s.stats.NMWriteBytes += uint64(sb)
	s.stats.FMWriteBytes += uint64(sb)
	s.stats.Migrations++

	// Update mappings: A takes the NM slot, B takes A's old FM slot.
	s.remap.Set(int(a), nmSlot) // an NM slot packs as itself
	s.nmOwner.Set(int(nmSlot), a)
	s.remap.Set(int(b), va)
	s.fmOwner.Set(int(la.Idx), b)
	s.writeRemapEntry(end, a)
	s.writeRemapEntry(end, b)
	return b
}

// CheckInvariants verifies that every packed remap entry decodes to an
// NM or an FM slot and the remap/owner bijection; used by tests.
func (s *Space) CheckInvariants() bool {
	seen := make(map[uint32]bool, s.remap.Len())
	for logical := range s.remap.Len() {
		v := s.remap.At(logical)
		if v >= s.Sectors() || seen[v] {
			return false
		}
		seen[v] = true
		l := s.Lookup(uint32(logical))
		if l.NM {
			if s.nmOwner.At(int(l.Idx)) != uint32(logical) {
				return false
			}
		} else if s.fmOwner.At(int(l.Idx)) != uint32(logical) {
			return false
		}
	}
	return true
}

// RemapCache is the on-chip cache of remap-table entries. Its capacity is
// set equal to Hybrid2's XTA in the paper's comparisons (§5, 512 KB).
type RemapCache struct {
	tags  []uint64 // logical sector +1, 0 = invalid
	lru   []uint64
	sets  int
	assoc int
	clock uint64

	Hits, Misses uint64
}

// NewRemapCache builds a remap cache of the given entry count.
func NewRemapCache(entries, assoc int) *RemapCache {
	sets := entries / assoc
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("migcommon: remap cache sets must be a positive power of two")
	}
	return &RemapCache{
		tags:  make([]uint64, entries),
		lru:   make([]uint64, entries),
		sets:  sets,
		assoc: assoc,
	}
}

// Lookup returns whether logical's remap entry is cached, inserting it.
func (r *RemapCache) Lookup(logical uint32) bool {
	r.clock++
	set := int(logical) % r.sets
	base := set * r.assoc
	victim := base
	key := uint64(logical) + 1
	for i := base; i < base+r.assoc; i++ {
		if r.tags[i] == key {
			r.lru[i] = r.clock
			r.Hits++
			return true
		}
		if r.tags[victim] == 0 {
			continue
		}
		if r.tags[i] == 0 || r.lru[i] < r.lru[victim] {
			victim = i
		}
	}
	r.Misses++
	r.tags[victim] = key
	r.lru[victim] = r.clock
	return false
}
