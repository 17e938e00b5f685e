package mempod

import (
	"hybridmem/internal/baselines/migcommon"
	"hybridmem/internal/config"
	"hybridmem/internal/design"
	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
)

func init() {
	design.Register(design.Info{
		Name:    "MPOD",
		Doc:     "MemPod interval-based page migration",
		Kind:    design.KindMain,
		Order:   1,
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
	// The cap matches the paper's per-run NM turnover: shortened
	// runs get proportionally more migrations per (scaled) interval.
	cfg.MaxMigrations = 16
	cfg.MinCount = 3
	return cfg
}
