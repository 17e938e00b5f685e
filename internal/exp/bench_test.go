package exp

import (
	"testing"

	"hybridmem/internal/design"
	"hybridmem/internal/workload"
)

// BenchmarkRunReuse measures one screening-fidelity run (3k instructions
// per core) of a design on mcf, built fresh for every run or reset on a
// worker's reuse slot, for the families a screened search spends its
// construction time on. A warm-up run before the timer pins the shared
// initial layout and fills the slot, so allocs/op is exact.
func BenchmarkRunReuse(b *testing.B) {
	wl, ok := workload.ByName("mcf")
	if !ok {
		b.Fatal("no workload mcf")
	}
	r := &Runner{Scale: 16, InstrPerCore: 3_000, Seed: 1}
	sys := r.system(1)
	for _, mode := range []string{"fresh", "reused"} {
		for _, name := range []string{"H2DSE-64-2-256", "DFC-64", "IDEAL-64"} {
			spec, err := design.Parse(name)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(mode+"/"+name, func(b *testing.B) {
				var slot *runSlot
				if mode == "reused" {
					slot = new(runSlot)
				}
				run := func() {
					if _, err := r.simulate(slot, spec, wl, sys, nil); err != nil {
						b.Fatal(err)
					}
				}
				run()
				b.ReportAllocs()
				for b.Loop() {
					run()
				}
			})
		}
	}
}
