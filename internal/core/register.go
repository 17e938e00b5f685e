package core

import (
	"fmt"

	"hybridmem/internal/config"
	"hybridmem/internal/design"
	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
)

// h2cfg resolves the paper's Hybrid2 configuration for a scaled system.
func h2cfg(sys config.System) Config {
	cfg := Default(sys.NMBytes, sys.FMBytes, sys.Hybrid2CacheBytes(), sys.Seed)
	cfg.FMBudgetReset = clampTick(sys.FMBudgetResetCycles())
	return cfg
}

// clampTick keeps a scaled period at least one cycle: a zero
// FMBudgetReset would spin maybeResetBudget forever.
func clampTick(v uint64) memtypes.Tick {
	if v < 1 {
		return 1
	}
	return memtypes.Tick(v)
}

// register adds a family whose runs configure a Hybrid2 through cfgOf;
// after, when non-nil, adjusts the organization once it is reset. Every
// family's Reset accepts any family's Hybrid2 (see design.Resettable),
// and its LayoutKey is the placement key Reset derives from cfgOf's
// configuration.
func register(info design.Info, cfgOf func(spec design.Spec, sys config.System) Config, after func(h *Hybrid2, spec design.Spec)) {
	info.NeedsNM = true
	info.LayoutKey = func(spec design.Spec, sys config.System) any { return placementKeyOf(cfgOf(spec, sys)) }
	design.Register(design.Resettable(info, func(h *Hybrid2, spec design.Spec, sys config.System, nm, fm *memsys.Device) {
		h.Reset(cfgOf(spec, sys), nm, fm)
		if after != nil {
			after(h, spec)
		}
	}))
}

func init() {
	register(design.Info{
		Name:  "HYBRID2",
		Doc:   "the paper's full design: sectored DRAM cache + migration + remap",
		Kind:  design.KindMain,
		Order: 6,
	}, func(_ design.Spec, sys config.System) Config { return h2cfg(sys) }, nil)

	for i, v := range []struct {
		name, doc string
		mode      Mode
	}{
		{"H2-CacheOnly", "Fig. 14 ablation: DRAM cache alone, no migration", CacheOnly},
		{"H2-MigrAll", "Fig. 14 ablation: migrate every evicted FM sector", MigrateAll},
		{"H2-MigrNone", "Fig. 14 ablation: never migrate", MigrateNone},
		{"H2-NoRemap", "Fig. 14 ablation: remap metadata accesses are free", NoRemapOverhead},
	} {
		mode := v.mode
		register(design.Info{
			Name:  v.name,
			Doc:   v.doc,
			Kind:  design.KindVariant,
			Order: 2 + i,
		}, func(_ design.Spec, sys config.System) Config {
			cfg := h2cfg(sys)
			cfg.Mode = mode
			return cfg
		}, nil)
	}

	register(design.Info{
		Name:  "H2ABL",
		Doc:   "Hybrid2 design-choice sensitivity variant",
		Kind:  design.KindVariant,
		Order: 6,
		Params: []design.Param{
			{Name: "knob", Doc: "constant to vary", Enum: []string{"ctr", "reset", "stack", "assoc", "free"}},
			{Name: "val", Doc: "knob value: counter bits, reset cycles, stack entries, XTA ways, or free per-mille", Min: 1, Max: 100_000_000},
		},
		Example: "H2ABL-ctr-9",
		Check: func(vals []design.Value) error {
			knob, v := vals[0].Raw, vals[1].Int
			switch knob {
			case "ctr":
				if v > 20 {
					return fmt.Errorf("H2ABL: counter width %d exceeds 20 bits", v)
				}
			case "stack":
				if v > 1<<16 {
					return fmt.Errorf("H2ABL: %d on-chip stack entries exceed 65536", v)
				}
			case "assoc":
				if v&(v-1) != 0 || v > 1024 {
					return fmt.Errorf("H2ABL: XTA associativity %d must be a power of two <= 1024", v)
				}
			case "free":
				if v > 1000 {
					return fmt.Errorf("H2ABL: free fraction %d exceeds 1000 per-mille", v)
				}
			}
			return nil
		},
	}, func(spec design.Spec, sys config.System) Config {
		cfg := h2cfg(sys)
		val := spec.Int("val")
		switch spec.Raw("knob") {
		case "ctr": // access-counter width in bits (§3.7.1, paper: 9)
			cfg.CounterBits = val
		case "reset": // FM budget reset period in paper cycles (§3.7.3)
			cfg.FMBudgetReset = clampTick(uint64(val) / uint64(sys.Scale))
		case "stack": // on-chip Free-FM-Stack entries (§3.3, paper: 16)
			cfg.FreeStackOnChip = val
		case "assoc": // XTA associativity (paper: 16)
			cfg.Assoc = val
		case "free": // §3.8 extension with val/1000 of memory hinted free
			cfg.FreeSpaceAware = true
		}
		return cfg
	}, func(h *Hybrid2, spec design.Spec) {
		if spec.Raw("knob") != "free" {
			return
		}
		total := uint64(h.Sectors()) * uint64(h.cfg.SectorBytes)
		freeBytes := total * uint64(spec.Int("val")) / 1000
		h.MarkFree(memtypes.Addr(total-freeBytes), freeBytes)
	})

	register(design.Info{
		Name:  "H2DSE",
		Doc:   "Hybrid2 Fig. 11 design-space point",
		Kind:  design.KindVariant,
		Order: 7,
		Params: []design.Param{
			{Name: "cacheMB", Doc: "paper-scale DRAM-cache size in MB", Min: 1, Max: 1024},
			{Name: "sectorKB", Doc: "sector size in KB", Min: 1, Max: 64},
			{Name: "lineB", Doc: "cache-line size in bytes", Min: 64, Max: 4096, Pow2: true},
		},
		Example: "H2DSE-64-2-256",
		Check: func(vals []design.Value) error {
			sector, line := vals[1].Int<<10, vals[2].Int
			if sector%line != 0 {
				return fmt.Errorf("H2DSE: sector (%d B) must be a multiple of the line size (%d B)", sector, line)
			}
			if sector/line > 64 {
				return fmt.Errorf("H2DSE: %d lines per sector exceed the 64-line valid/dirty vectors", sector/line)
			}
			return nil
		},
	}, func(spec design.Spec, sys config.System) Config {
		cacheBytes := uint64(spec.Int("cacheMB")) << 20 / uint64(sys.Scale)
		cfg := Default(sys.NMBytes, sys.FMBytes, cacheBytes, sys.Seed)
		cfg.FMBudgetReset = clampTick(sys.FMBudgetResetCycles())
		cfg.SectorBytes = spec.Int("sectorKB") << 10
		cfg.LineBytes = spec.Int("lineB")
		return cfg
	}, nil)
}
