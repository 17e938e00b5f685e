// Package dramcache implements the DRAM-cache family of the paper's
// comparison: the near memory used entirely as a cache of far memory.
// One parameterized implementation covers three designs:
//
//   - IDEAL: no tag-lookup overhead at any line size (Figures 1, 2)
//   - TAGLESS (Lee et al., ISCA'15): 4 KB pages tracked through the
//     TLB/page tables, hence no tag overhead, but full-page fills
//   - DFC (Decoupled Fused Cache, TACO'19): tags live in DRAM but are
//     fused with the on-chip LLC tags; modelled as a small on-chip lookup
//     latency on every access plus one NM metadata access per miss
//
// Lines are fetched whole from FM on a miss (the over-fetch behaviour
// Figure 1 quantifies); per-64B-chunk use masks feed the wasted-data
// accounting.
package dramcache

import (
	"math/bits"

	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
)

// Config selects a member of the DRAM-cache family.
type Config struct {
	Name      string
	NMBytes   uint64 // cache capacity = all of near memory
	LineBytes int    // DRAM-cache line (64 B .. 4 KB)
	Assoc     int
	// TagLatency is an on-chip lookup latency added to every access
	// (DFC's fused tag structures). Zero for IDEAL/TAGLESS.
	TagLatency memtypes.Tick
	// MetaPerMiss charges one 64 B NM metadata read on the critical path
	// of every miss plus one background metadata write (DFC's in-DRAM
	// tag array). False for IDEAL/TAGLESS.
	MetaPerMiss bool
	// TADBytes, when non-zero, models Alloy-style tag-and-data fusion:
	// every probe (hit or miss) is one NM burst of this size — the tag
	// rides along with the data, so there is no separate lookup, but a
	// miss still pays the probe before going to FM.
	TADBytes int
}

// Ideal returns the ideal-cache configuration at a line size (Fig. 1/2).
func Ideal(nmBytes uint64, lineBytes int) Config {
	return Config{Name: "IDEAL", NMBytes: nmBytes, LineBytes: lineBytes, Assoc: 16}
}

// Tagless returns the Tagless DRAM cache configuration: 4 KB pages, no
// tag overhead (the paper optimistically models no OS overhead either).
func Tagless(nmBytes uint64) Config {
	return Config{Name: "TAGLESS", NMBytes: nmBytes, LineBytes: 4096, Assoc: 32}
}

// DFC returns the Decoupled Fused Cache configuration. The paper found
// its best performance at 1 KB lines; Fig. 2 sweeps other sizes.
func DFC(nmBytes uint64, lineBytes int) Config {
	return Config{Name: "DFC", NMBytes: nmBytes, LineBytes: lineBytes, Assoc: 16,
		TagLatency: 4, MetaPerMiss: true}
}

// Alloy returns the Alloy cache configuration (Qureshi & Loh, MICRO'12,
// §2.1 of the paper): direct-mapped, 64 B lines, tag collocated with the
// data so each probe is a single burst (TAD) — the practical design on
// the small-line end of the DRAM-cache spectrum.
func Alloy(nmBytes uint64) Config {
	return Config{Name: "ALLOY", NMBytes: nmBytes, LineBytes: 64, Assoc: 1, TADBytes: 72}
}

// Entry state is struct-of-arrays: one tag word per way, one use mask per
// way for lines of more than one 64 B chunk (a one-chunk line's use is
// its fill), and an LRU stamp array left out for direct-mapped configs. The
// valid/dirty/listed flags live in spare high bits of the tag word —
// physical addresses fit well below 2^58 line-granularity tags — so a
// probe walks a compact tag vector. A 64 B-line cache over scaled NM has
// millions of entries and a short run fills a few thousand of them, so
// zeroing the arrays for every run would dominate it; Reset instead
// clears only the entries the touched list names and keeps the arrays.
const (
	tagValid  = 1 << 63
	tagDirty  = 1 << 62
	tagListed = 1 << 61
	tagMask   = tagListed - 1
)

// Cache is a DRAM cache over the NM device backed by the FM device.
type Cache struct {
	cfg    Config
	nm, fm *memsys.Device

	tags []uint64 // sets*assoc, indexed set*assoc+way; flags in high bits
	lrus []uint64 // nil when assoc == 1: no replacement choice to order
	used []uint64 // per-64B chunk touch bits (lines up to 4 KB); nil for 64 B lines

	// touched lists every slot that ever held a line, in first-fill
	// order, so Finish credits resident use masks without scanning the
	// whole (potentially tens of millions of entries) array.
	touched []int32

	sets     int
	assoc    int
	shift    uint
	setBits  uint
	setMask  uint64
	lineMask uint64
	chunks   int // 64 B chunks per line
	clock    uint64
	stats    memtypes.MemStats
	metaBase memtypes.Addr // NM address region used for DFC metadata
}

// New builds the cache. NMBytes must be a multiple of Assoc*LineBytes
// with a power-of-two set count.
func New(cfg Config, nm, fm *memsys.Device) *Cache {
	c := new(Cache)
	c.Reset(cfg, nm, fm)
	return c
}

// Reset returns c to the state New(cfg, nm, fm) would return, in time
// proportional to the entries c's runs have filled. Every entry outside
// the touched list is zero in every array, so clearing the listed
// entries zeroes the arrays, and Reset keeps each one whose capacity
// covers cfg's geometry. The geometry is checked as in New before c
// changes.
func (c *Cache) Reset(cfg Config, nm, fm *memsys.Device) {
	sets := int(cfg.NMBytes) / (cfg.Assoc * cfg.LineBytes)
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("dramcache: set count must be a positive power of two")
	}
	shift := uint(bits.TrailingZeros64(uint64(cfg.LineBytes)))
	if 1<<shift != cfg.LineBytes || cfg.LineBytes < 64 {
		panic("dramcache: line size must be a power of two >= 64")
	}
	for _, idx := range c.touched {
		c.tags[idx] = 0
		if c.used != nil {
			c.used[idx] = 0
		}
		if c.lrus != nil {
			c.lrus[idx] = 0
		}
	}
	n := sets * cfg.Assoc
	lrus, used := c.lrus, c.used
	touched := c.touched[:0]
	if touched == nil {
		touched = make([]int32, 0, 1024)
	}
	*c = Cache{
		cfg:      cfg,
		nm:       nm,
		fm:       fm,
		tags:     resize(c.tags, n),
		touched:  touched,
		sets:     sets,
		assoc:    cfg.Assoc,
		shift:    shift,
		setBits:  uint(bits.TrailingZeros(uint(sets))),
		setMask:  uint64(sets - 1),
		lineMask: uint64(cfg.LineBytes - 1),
		chunks:   cfg.LineBytes / 64,
		metaBase: memtypes.Addr(cfg.NMBytes),
	}
	if cfg.Assoc > 1 {
		c.lrus = resize(lrus, n)
	}
	if c.chunks > 1 {
		c.used = resize(used, n)
	}
}

// resize returns the zero slice s with length n, reusing its backing
// array when it is large enough.
func resize(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

// Name implements MemorySystem.
func (c *Cache) Name() string { return c.cfg.Name }

// Stats implements MemorySystem.
func (c *Cache) Stats() *memtypes.MemStats { return &c.stats }

// nmAddr maps an entry slot to its NM data location.
func (c *Cache) nmAddr(set, way int) memtypes.Addr {
	return memtypes.Addr((set*c.assoc + way) * c.cfg.LineBytes)
}

// Access implements MemorySystem.
func (c *Cache) Access(now memtypes.Tick, addr memtypes.Addr, write bool) memtypes.Tick {
	c.stats.Requests++
	c.clock++
	now += c.cfg.TagLatency

	blk := uint64(addr) >> c.shift
	set := int(blk & c.setMask)
	tag := blk >> c.setBits
	chunk := uint(uint64(addr) & c.lineMask >> 6)
	base := set * c.assoc

	for i := 0; i < c.assoc; i++ {
		w := c.tags[base+i]
		if w&tagValid != 0 && w&tagMask == tag {
			if c.assoc > 1 {
				c.lrus[base+i] = c.clock
			}
			if c.used != nil {
				c.used[base+i] |= 1 << chunk
			}
			if write {
				c.tags[base+i] = w | tagDirty
			}
			c.stats.ServedNM++
			sz := 64
			if c.cfg.TADBytes > 0 {
				sz = c.cfg.TADBytes // tag rides with the data
			}
			done := c.nm.Access(now, c.nmAddr(set, i)+memtypes.Addr(chunk*64), sz, write)
			if write {
				c.stats.NMWriteBytes += uint64(sz)
			} else {
				c.stats.NMReadBytes += uint64(sz)
			}
			return done
		}
	}

	// Miss: pick the victim the way the old array-of-structs scan did —
	// the first invalid way when one exists, else the lowest-indexed way
	// with the minimum LRU stamp — then evict it and fetch the whole line
	// from FM.
	c.stats.ServedFM++
	victim := 0
	if c.assoc > 1 {
		victim = -1
		minI := 0
		for i := 0; i < c.assoc; i++ {
			if c.tags[base+i]&tagValid == 0 {
				victim = i
				break
			}
			if c.lrus[base+i] < c.lrus[base+minI] {
				minI = i
			}
		}
		if victim < 0 {
			victim = minI
		}
	}
	slot := c.nmAddr(set, victim)
	if c.tags[base+victim]&tagValid != 0 {
		c.evict(now, set, victim)
	}

	if c.cfg.TADBytes > 0 {
		// Alloy probe: the miss is only discovered after reading the TAD.
		now = c.nm.Access(now, slot, c.cfg.TADBytes, false)
		c.stats.NMReadBytes += uint64(c.cfg.TADBytes)
		c.stats.MetaNMBytes += uint64(c.cfg.TADBytes)
	}
	if c.cfg.MetaPerMiss {
		// In-DRAM tag read on the critical path + background tag update.
		now = c.nm.Access(now, c.metaBase+memtypes.Addr(set*64), 64, false)
		c.nm.AccessBG(now, c.metaBase+memtypes.Addr(set*64), 64, true)
		c.stats.NMReadBytes += 64
		c.stats.NMWriteBytes += 64
		c.stats.MetaNMBytes += 128
	}

	// Critical-word-first: the demanded 64 B chunk arrives first; the
	// rest of the line streams behind it, occupying FM bandwidth but not
	// the miss critical path.
	lineBase := memtypes.Addr(blk << c.shift)
	fetchDone, fullDone := c.fm.AccessCriticalFirst(now, lineBase, c.cfg.LineBytes, 64)
	c.stats.FMReadBytes += uint64(c.cfg.LineBytes)
	c.stats.FetchedBytes += uint64(c.cfg.LineBytes)
	// Fill into NM in the background.
	c.nm.AccessBG(fullDone, slot, c.cfg.LineBytes, true)
	c.stats.NMWriteBytes += uint64(c.cfg.LineBytes)

	newTag := tag | tagValid | tagListed
	if write {
		newTag |= tagDirty
	}
	if c.tags[base+victim]&tagListed == 0 {
		c.touched = append(c.touched, int32(base+victim))
	}
	c.tags[base+victim] = newTag
	if c.used != nil {
		c.used[base+victim] = 1 << chunk
	}
	if c.assoc > 1 {
		c.lrus[base+victim] = c.clock
	}
	return fetchDone
}

// evict writes a dirty victim back to FM and accounts its used chunks.
func (c *Cache) evict(now memtypes.Tick, set, way int) {
	idx := set*c.assoc + way
	w := c.tags[idx]
	c.stats.UsedBytes += c.usedBytes(idx)
	c.stats.Evictions++
	if w&tagDirty != 0 {
		rd := c.nm.AccessBG(now, c.nmAddr(set, way), c.cfg.LineBytes, false)
		victimAddr := memtypes.Addr(((w&tagMask)<<c.setBits | uint64(set)) << c.shift)
		c.fm.AccessBG(rd, victimAddr, c.cfg.LineBytes, true)
		c.stats.NMReadBytes += uint64(c.cfg.LineBytes)
		c.stats.FMWriteBytes += uint64(c.cfg.LineBytes)
	}
	c.tags[idx] = w &^ tagValid
}

// Finish credits the use masks of still-resident lines so the wasted-data
// fraction is not overstated at simulation end. Only slots that ever held
// a line are visited; the accumulation is commutative, so the first-fill
// visit order matches the old full scan's result exactly.
func (c *Cache) Finish(memtypes.Tick) {
	for _, idx := range c.touched {
		if c.tags[idx]&tagValid != 0 {
			c.stats.UsedBytes += c.usedBytes(int(idx))
			if c.used != nil {
				c.used[idx] = 0
			}
		}
	}
}

// usedBytes returns how many bytes of the line in entry idx were touched.
func (c *Cache) usedBytes(idx int) uint64 {
	if c.used == nil {
		return 64 // a one-chunk line: the fill touched it
	}
	return uint64(bits.OnesCount64(c.used[idx])) * 64
}
