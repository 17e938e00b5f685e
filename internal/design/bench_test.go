package design_test

import (
	"testing"

	"hybridmem/internal/config"
	"hybridmem/internal/design"
	"hybridmem/internal/memtypes"
)

var benchSink memtypes.MemorySystem

// BenchmarkSpecBuild measures construction of each registered family at
// the default scaled system, building one spec repeatedly the way a sweep
// or search rebuilds it for every workload: families with a shared
// initial layout pay the full layout build on the first build only, when
// the memo pins it, and fork it afterwards. Runs on a worker's reuse
// slot skip most of this cost; BenchmarkRunReuse in internal/exp
// measures them.
func BenchmarkSpecBuild(b *testing.B) {
	sys := config.Scaled(16, 1)
	for _, info := range design.AllInfos() {
		spec, err := design.Parse(info.SampleName())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(info.Name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				ms, _, _, err := spec.Build(sys)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = ms
			}
		})
	}
}
