package dramcache

import (
	"hybridmem/internal/config"
	"hybridmem/internal/design"
	"hybridmem/internal/memsys"
)

// lineParam is the shared cache-line-size grammar of the parameterized
// DRAM caches. The upper bound is a parse-time sanity cap; the scaled NM
// capacity still constrains the real maximum at build time.
func lineParam(doc string, optional bool, def int) design.Param {
	return design.Param{
		Name: "lineB", Doc: doc,
		Min: 64, Max: 1 << 16, Pow2: true,
		Optional: optional, Default: def,
	}
}

// register adds a family whose configuration is cfg(spec, sys); every
// family's Reset accepts any family's cache (see design.Resettable).
func register(info design.Info, cfg func(design.Spec, config.System) Config) {
	info.NeedsNM = true
	design.Register(design.Resettable(info, func(c *Cache, spec design.Spec, sys config.System, nm, fm *memsys.Device) {
		c.Reset(cfg(spec, sys), nm, fm)
	}))
}

func init() {
	register(design.Info{
		Name:  "TAGLESS",
		Doc:   "tagless DRAM cache (4 KB pages)",
		Kind:  design.KindMain,
		Order: 4,
	}, func(_ design.Spec, sys config.System) Config { return Tagless(sys.NMBytes) })
	register(design.Info{
		Name:  "ALLOY",
		Doc:   "direct-mapped TAD cache (64 B lines)",
		Kind:  design.KindExtra,
		Order: 4,
	}, func(_ design.Spec, sys config.System) Config { return Alloy(sys.NMBytes) })
	register(design.Info{
		Name:    "DFC",
		Doc:     "decoupled fused cache (default 1 KB lines)",
		Kind:    design.KindMain,
		Order:   5,
		Params:  []design.Param{lineParam("cache-line size in bytes", true, 1024)},
		Example: "DFC-1024",
	}, func(spec design.Spec, sys config.System) Config { return DFC(sys.NMBytes, spec.Int("lineB")) })
	register(design.Info{
		Name:    "IDEAL",
		Doc:     "ideal (no tag/latency overhead) cache at a line size",
		Kind:    design.KindVariant,
		Order:   1,
		Params:  []design.Param{lineParam("cache-line size in bytes", false, 0)},
		Example: "IDEAL-256",
	}, func(spec design.Spec, sys config.System) Config { return Ideal(sys.NMBytes, spec.Int("lineB")) })
}
