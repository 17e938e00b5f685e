// Package cameo implements CAMEO (Chou, Jaleel, Qureshi, MICRO'14), the
// origin of the congruence-group approach the paper's §2.2 discusses: NM
// and FM form a flat address space managed at cache-line (64 B)
// granularity, each NM line forming a group with its K congruent FM
// lines. Every access to an FM-resident line swaps it with the group's
// NM-resident line ("cache-like" migration), so the most recent line of
// each group always sits in NM. A line-granularity remap ("LLIT") is
// cached on-chip; misses read it from NM.
//
// CAMEO's strength is fine granularity (no over-fetch); its weakness —
// which the Hybrid2 paper points out for group-based schemes — is that
// low NM:FM ratios give each group many competitors for one NM line.
package cameo

import (
	"hybridmem/internal/cow"
	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
)

// Config parameterizes CAMEO.
type Config struct {
	LineBytes         int
	NMBytes, FMBytes  uint64
	RemapCacheEntries int
	Seed              uint64
}

// Default returns the standard CAMEO configuration.
func Default(nmBytes, fmBytes uint64, remapEntries int, seed uint64) Config {
	return Config{
		LineBytes:         memtypes.CPULineBytes,
		NMBytes:           nmBytes,
		FMBytes:           fmBytes,
		RemapCacheEntries: remapEntries,
		Seed:              seed,
	}
}

// CAMEO implements memtypes.MemorySystem.
type CAMEO struct {
	cfg   Config
	nm    *memsys.Device
	fm    *memsys.Device
	stats memtypes.MemStats

	groups uint32 // one NM line per group
	k      uint32 // FM lines per group
	pinned uint32
	// slots[g*(k+1)+j]: location of member j of group g:
	// 0 = the group's NM line, v>0 = FM line g*k+(v-1).
	slots cow.Table[uint8]

	rcTags []uint64
	rcLRU  []uint64
	rcSets int
	clock  uint64

	permPow2 uint32
	permMul  uint32
	permAdd  uint32
}

// New builds CAMEO over the two devices.
func New(cfg Config, nm, fm *memsys.Device) *CAMEO {
	groups := uint32(cfg.NMBytes / uint64(cfg.LineBytes))
	fmLines := uint32(cfg.FMBytes / uint64(cfg.LineBytes))
	if groups == 0 {
		panic("cameo: no NM capacity")
	}
	k := fmLines / groups
	if k == 0 {
		k = 1
	}
	c := &CAMEO{
		cfg:    cfg,
		nm:     nm,
		fm:     fm,
		groups: groups,
		k:      k,
		pinned: fmLines - groups*k,
		rcTags: make([]uint64, cfg.RemapCacheEntries),
		rcLRU:  make([]uint64, cfg.RemapCacheEntries),
		rcSets: cfg.RemapCacheEntries / 16,
	}
	if c.rcSets <= 0 || c.rcSets&(c.rcSets-1) != 0 {
		panic("cameo: remap cache sets must be a positive power of two")
	}
	// Initially member j of every group sits in slot value j: member 0
	// in the group's NM line, member j>0 in its (j-1)-th FM line.
	pattern := make([]uint8, k+1)
	for j := range pattern {
		pattern[j] = uint8(j)
	}
	c.slots = cow.Repeat(int(groups)*len(pattern), pattern)
	p := uint32(1)
	for p < c.Lines() {
		p <<= 1
	}
	c.permPow2 = p
	c.permMul = uint32(cfg.Seed)*8 + 5
	c.permAdd = uint32(cfg.Seed>>16) | 1
	return c
}

// Lines returns the logical flat-space size in 64 B lines.
func (c *CAMEO) Lines() uint32 { return c.groups*(c.k+1) + c.pinned }

// Name implements MemorySystem.
func (c *CAMEO) Name() string { return "CAMEO" }

// Stats implements MemorySystem.
func (c *CAMEO) Stats() *memtypes.MemStats { return &c.stats }

// scramble models OS page-allocation randomness (cycle-walking LCG).
func (c *CAMEO) scramble(l uint32) uint32 {
	n := c.Lines()
	x := l
	for {
		x = (x*c.permMul + c.permAdd) & (c.permPow2 - 1)
		if x < n {
			return x
		}
	}
}

// rcLookup checks the on-chip line-location table cache (one entry covers
// a group, like CAMEO's row-granularity LLIT entries).
func (c *CAMEO) rcLookup(group uint32) bool {
	c.clock++
	set := int(group) % c.rcSets
	base := set * 16
	victim := base
	key := uint64(group) + 1
	for i := base; i < base+16; i++ {
		if c.rcTags[i] == key {
			c.rcLRU[i] = c.clock
			return true
		}
		if c.rcTags[victim] == 0 {
			continue
		}
		if c.rcTags[i] == 0 || c.rcLRU[i] < c.rcLRU[victim] {
			victim = i
		}
	}
	c.rcTags[victim] = key
	c.rcLRU[victim] = c.clock
	return false
}

// Access implements MemorySystem: an FM-resident line is swapped with the
// group's NM occupant on every access (CAMEO's policy).
func (c *CAMEO) Access(now memtypes.Tick, addr memtypes.Addr, write bool) memtypes.Tick {
	c.stats.Requests++
	logical := uint32(uint64(addr) / uint64(c.cfg.LineBytes))
	if logical >= c.Lines() {
		logical %= c.Lines()
	}
	logical = c.scramble(logical)
	lb := c.cfg.LineBytes

	grouped := c.groups * (c.k + 1)
	if logical >= grouped {
		// Pinned FM line: no group, no migration.
		c.stats.ServedFM++
		fmAddr := memtypes.Addr(c.groups*c.k+(logical-grouped)) * memtypes.Addr(lb)
		done := c.fm.Access(now, fmAddr, lb, write)
		c.countFM(write)
		return done
	}

	g := logical % c.groups
	j := logical / c.groups
	if !c.rcLookup(g) {
		// Line-location table read from NM on the critical path.
		now = c.nm.Access(now, memtypes.Addr(c.cfg.NMBytes)-memtypes.Addr(1+g%4096)*64, 64, false)
		c.stats.NMReadBytes += 64
		c.stats.MetaNMBytes += 64
	}

	base := uint64(g) * uint64(c.k+1)
	v := c.slots.At(int(base + uint64(j)))
	nmAddr := memtypes.Addr(g) * memtypes.Addr(lb)
	if v == 0 {
		c.stats.ServedNM++
		done := c.nm.Access(now, nmAddr, lb, write)
		if write {
			c.stats.NMWriteBytes += uint64(lb)
		} else {
			c.stats.NMReadBytes += uint64(lb)
		}
		return done
	}

	// FM resident: serve it and swap it with the NM occupant.
	c.stats.ServedFM++
	fmAddr := memtypes.Addr(g*c.k+uint32(v-1)) * memtypes.Addr(lb)
	done := c.fm.Access(now, fmAddr, lb, write)
	c.countFM(write)

	// Swap in the background: the occupant goes to the accessed line's
	// FM slot, the line's data fills the NM slot.
	rdNM := c.nm.AccessBG(now, nmAddr, lb, false)
	c.fm.AccessBG(rdNM, fmAddr, lb, true)
	c.nm.AccessBG(done, nmAddr, lb, true)
	c.stats.NMReadBytes += uint64(lb)
	c.stats.FMWriteBytes += uint64(lb)
	c.stats.NMWriteBytes += uint64(lb)
	c.stats.Migrations++

	// Occupant member (slot value 0) takes v; accessed member takes NM.
	for jj := uint64(0); jj <= uint64(c.k); jj++ {
		if c.slots.At(int(base+jj)) == 0 {
			c.slots.Set(int(base+jj), v)
			break
		}
	}
	c.slots.Set(int(base+uint64(j)), 0)
	return done
}

func (c *CAMEO) countFM(write bool) {
	if write {
		c.stats.FMWriteBytes += uint64(c.cfg.LineBytes)
	} else {
		c.stats.FMReadBytes += uint64(c.cfg.LineBytes)
	}
}

// Finish implements MemorySystem (no deferred work).
func (c *CAMEO) Finish(memtypes.Tick) {}

// CheckInvariants verifies each group holds exactly one NM resident and
// distinct FM slots; used by tests.
func (c *CAMEO) CheckInvariants() bool {
	for g := uint32(0); g < c.groups; g++ {
		base := uint64(g) * uint64(c.k+1)
		seen := make(map[uint8]bool, c.k+1)
		nmCount := 0
		for j := uint64(0); j <= uint64(c.k); j++ {
			v := c.slots.At(int(base + j))
			if seen[v] {
				return false
			}
			seen[v] = true
			if v == 0 {
				nmCount++
			}
		}
		if nmCount != 1 {
			return false
		}
	}
	return true
}
