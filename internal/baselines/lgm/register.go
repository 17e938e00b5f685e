package lgm

import (
	"hybridmem/internal/baselines/migcommon"
	"hybridmem/internal/config"
	"hybridmem/internal/design"
	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
)

func init() {
	design.Register(design.Info{
		Name:    "LGM",
		Doc:     "LLC-guided migration",
		Kind:    design.KindMain,
		Order:   3,
		NeedsNM: true,
		Build: func(_ design.Spec, sys config.System, nm, fm *memsys.Device) (memtypes.MemorySystem, error) {
			return New(sysConfig(sys), nm, fm), nil
		},
		LayoutKey: func(_ design.Spec, sys config.System) any {
			cfg := sysConfig(sys)
			return migcommon.LayoutKey(cfg.SectorBytes, cfg.NMBytes, cfg.FMBytes, cfg.Seed)
		},
	})
}

// sysConfig is the registered configuration for a scaled system.
func sysConfig(sys config.System) Config {
	cfg := Default(sys.NMBytes, sys.FMBytes, design.RemapEntries(sys), sys.Seed)
	cfg.IntervalCycles = memtypes.Tick(sys.IntervalCycles())
	cfg.Watermark = 32
	return cfg
}
