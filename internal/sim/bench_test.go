package sim

import (
	"testing"

	"hybridmem/internal/cachesim"
	"hybridmem/internal/config"
	"hybridmem/internal/memtypes"
	"hybridmem/internal/workload"
)

// recSource replays recorded records through the batch fast path.
type recSource struct {
	recs []memtypes.Rec
	pos  int
}

func (s *recSource) Next() (uint64, memtypes.Addr, bool, bool) {
	if s.pos == len(s.recs) {
		return 0, 0, false, false
	}
	r := s.recs[s.pos]
	s.pos++
	return r.Gap, r.Addr, r.Write, true
}

func (s *recSource) NextBatch(dst []memtypes.Rec) int {
	n := copy(dst, s.recs[s.pos:])
	s.pos += n
	return n
}

// fixedMS serves every access after a fixed latency, so a run's time is
// the loop's own: scheduler, LLC, cores and record buffers.
type fixedMS struct{ st memtypes.MemStats }

func (m *fixedMS) Name() string { return "fixed" }
func (m *fixedMS) Access(now memtypes.Tick, _ memtypes.Addr, _ bool) memtypes.Tick {
	m.st.Requests++
	return now + 200
}
func (m *fixedMS) Finish(memtypes.Tick)      {}
func (m *fixedMS) Stats() *memtypes.MemStats { return &m.st }

// BenchmarkRunLoop runs the recorded records of lbm (200k instructions
// per core, 8 cores, MLP 8) through the run loop on a reused LLC and a
// fixed-latency memory system. One op is one run; allocs/op counts the
// run's per-core state, which does not grow with the record count.
func BenchmarkRunLoop(b *testing.B) {
	spec, ok := workload.ByName("lbm")
	if !ok {
		b.Fatal("no workload lbm")
	}
	s := config.Scaled(16, 16)
	s.InstrPerCore = 200_000
	srcs := make([]Source, config.Cores)
	rs := make([]*recSource, config.Cores)
	records := 0
	for i := range rs {
		st := workload.NewStream(spec, i, s.Scale, s.InstrPerCore, 1)
		rs[i] = new(recSource)
		for {
			gap, addr, write, ok := st.Next()
			if !ok {
				break
			}
			rs[i].recs = append(rs[i].recs, memtypes.Rec{Gap: gap, Addr: addr, Write: write})
		}
		records += len(rs[i].recs)
		srcs[i] = rs[i]
	}
	llc := new(cachesim.Cache)
	ms := new(fixedMS)
	b.ReportAllocs()
	for b.Loop() {
		for _, r := range rs {
			r.pos = 0
		}
		runSources(llc, spec.Name, srcs, MLPFor(spec), ms, nil, nil, s, nil)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
}
