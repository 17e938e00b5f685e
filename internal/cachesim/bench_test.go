package cachesim

import (
	"testing"

	"hybridmem/internal/config"
	"hybridmem/internal/memtypes"
	"hybridmem/internal/workload"
)

// llcStream returns the LLC access stream of a generated workload: each
// core's records at scale 16, interleaved round-robin the way the run
// loop's scheduler interleaves cores of equal speed.
func llcStream(b *testing.B, name string, instrPerCore uint64) []memtypes.Rec {
	spec, ok := workload.ByName(name)
	if !ok {
		b.Fatalf("no workload %s", name)
	}
	streams := make([]*workload.Stream, config.Cores)
	for i := range streams {
		streams[i] = workload.NewStream(spec, i, 16, instrPerCore, 1)
	}
	var out []memtypes.Rec
	for live := true; live; {
		live = false
		for _, s := range streams {
			if gap, addr, write, ok := s.Next(); ok {
				out = append(out, memtypes.Rec{Gap: gap, Addr: addr, Write: write})
				live = true
			}
		}
	}
	return out
}

// BenchmarkCacheAccess replays a recorded LLC stream of mcf (200k
// instructions per core) through the scale-16 LLC of Table 1 (512 KB,
// 16-way, 64 B lines). One op is a Reset plus the whole stream; the
// ns/access metric is the per-access cost.
func BenchmarkCacheAccess(b *testing.B) {
	stream := llcStream(b, "mcf", 200_000)
	sys := config.Scaled(16, 16)
	c := New(sys.LLCBytes, config.LLCAssoc, memtypes.CPULineBytes)
	b.ReportAllocs()
	for b.Loop() {
		c.Reset(sys.LLCBytes, config.LLCAssoc, memtypes.CPULineBytes)
		for _, r := range stream {
			c.Access(r.Addr, r.Write)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(stream)), "ns/access")
}
