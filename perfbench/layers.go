package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"hybridmem/internal/api"
	"hybridmem/internal/cachesim"
	"hybridmem/internal/config"
	"hybridmem/internal/design"
	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
	"hybridmem/internal/sim"
	"hybridmem/internal/store"
	"hybridmem/internal/trace"
	"hybridmem/internal/workload"
)

// The layer harness isolates the family Access, memsys and cachesim
// layers: one run records the LLC access stream and the LLC-miss stream
// that reaches the memory system, and each layer then replays the
// recording into freshly built state, timed in bulk. The recording
// comes from the sweep's most memory-bound workload at its full
// budget.
const (
	recordWorkload = "mcf"
	recordInstr    = sweepInstr
	replayReps     = 3
)

// miss is one memory-system call of the recorded run.
type miss struct {
	now   memtypes.Tick
	addr  memtypes.Addr
	write bool
}

// recording captures the streams: sources record what the run loop
// consumes (plain Next calls, so in consumption order) and the memory
// system wrapper records each call. The run loop is single-threaded.
type recording struct {
	llc    []memtypes.Rec
	misses []miss
}

type recordingSource struct {
	src sim.Source
	r   *recording
}

func (s recordingSource) Next() (uint64, memtypes.Addr, bool, bool) {
	gap, addr, write, ok := s.src.Next()
	if ok {
		s.r.llc = append(s.r.llc, memtypes.Rec{Gap: gap, Addr: addr, Write: write})
	}
	return gap, addr, write, ok
}

type recordingMS struct {
	memtypes.MemorySystem
	r *recording
}

func (m recordingMS) Access(now memtypes.Tick, addr memtypes.Addr, write bool) memtypes.Tick {
	m.r.misses = append(m.r.misses, miss{now, addr, write})
	return m.MemorySystem.Access(now, addr, write)
}

func record(seed uint64) (*recording, config.System, error) {
	wl, _ := workload.ByName(recordWorkload)
	sys := system(recordInstr, seed)
	ms, nm, fm, err := design.Build("Baseline", sys)
	if err != nil {
		return nil, sys, err
	}
	r := &recording{}
	srcs := streams(wl, sys)
	for i, s := range srcs {
		srcs[i] = recordingSource{s, r}
	}
	sim.RunSources(wl.Name, srcs, sim.MLPFor(wl), recordingMS{ms, r}, nm, fm, sys)
	return r, sys, nil
}

// perOp returns the median over reps timings of fn, in ns per op.
func perOp(reps, ops int, fn func() time.Duration) float64 {
	var ts []float64
	for i := 0; i < reps; i++ {
		ts = append(ts, float64(fn())/float64(ops))
	}
	return median(ts)
}

// spanned times fn inside a span.
func spanned(rec *recorder, name string, fn func()) time.Duration {
	sp := rec.begin(0, -1, name)
	t0 := time.Now()
	fn()
	el := time.Since(t0)
	rec.end(sp)
	return el
}

// accessLayers replays the miss stream into every sweep design and both
// DRAM devices, and the LLC stream into the LLC model.
func accessLayers(rec *recorder, rc *recording, sys config.System, m map[string]float64) error {
	n := len(rc.misses)
	m["access.replay_calls"] = float64(n)
	for _, d := range sweepDesigns {
		var served float64
		var buildErr error
		m["access."+d+".ns"] = perOp(replayReps, n, func() time.Duration {
			ms, _, _, err := design.Build(d, sys)
			if err != nil {
				buildErr = err
				return 0
			}
			el := spanned(rec, "access."+family(d)+" replay", func() {
				for _, x := range rc.misses {
					ms.Access(x.now, x.addr, x.write)
				}
				ms.Finish(rc.misses[n-1].now)
			})
			st := ms.Stats()
			served = float64(st.ServedNM) / float64(st.Requests)
			return el
		})
		if buildErr != nil {
			return buildErr
		}
		m["access."+d+".nm_served_frac"] = served
	}
	for name, cfg := range map[string]memsys.Config{"hbm2": memsys.HBM2Config(), "ddr4": memsys.DDR4Config()} {
		m["memsys."+name+".access_ns"] = perOp(replayReps, n, func() time.Duration {
			dev := memsys.New(cfg)
			return spanned(rec, "memsys.Device.Access "+name, func() {
				for _, x := range rc.misses {
					dev.Access(x.now, x.addr, memtypes.CPULineBytes, x.write)
				}
			})
		})
	}
	var missRatio float64
	m["cachesim.access_ns"] = perOp(replayReps, len(rc.llc), func() time.Duration {
		llc := cachesim.New(sys.LLCBytes, config.LLCAssoc, memtypes.CPULineBytes)
		el := spanned(rec, "cachesim.Cache.Access", func() {
			for _, r := range rc.llc {
				llc.Access(r.Addr, r.Write)
			}
		})
		missRatio = float64(llc.Misses) / float64(llc.Accesses)
		return el
	})
	m["cachesim.miss_ratio"] = missRatio
	return nil
}

// genLayer times workload generation over the sweep workloads.
func genLayer(seed uint64, m map[string]float64) {
	buf := make([]memtypes.Rec, 64)
	var recs int
	var el time.Duration
	for _, name := range sweepWorkloads {
		wl, _ := workload.ByName(name)
		for c := 0; c < config.Cores; c++ {
			s := workload.NewStream(wl, c, config.DefaultScale, recordInstr, seed)
			t0 := time.Now()
			for n := s.NextBatch(buf); n > 0; n = s.NextBatch(buf) {
				recs += n
			}
			el += time.Since(t0)
		}
	}
	m["workload.gen_ns_per_rec"] = float64(el) / float64(recs)
}

// decodeLayer times streaming decode of the binary trace, draining the
// cores round-robin as the run loop would.
func decodeLayer(rec *recorder, tr []byte, m map[string]float64) error {
	buf := make([]memtypes.Rec, 64)
	var perRec []float64
	for i := 0; i < replayReps; i++ {
		t0 := time.Now()
		sp := rec.begin(i, -1, "trace.NewStreamReader")
		sr, err := trace.NewStreamReader(bytes.NewReader(tr), config.Cores, 0)
		rec.end(sp)
		if err != nil {
			return err
		}
		var recs int
		for live := true; live; {
			live = false
			for c := 0; c < config.Cores; c++ {
				if n := sr.Source(c).NextBatch(buf); n > 0 {
					recs += n
					live = true
				}
			}
		}
		if err := sr.Err(); err != nil {
			return err
		}
		perRec = append(perRec, float64(time.Since(t0))/float64(recs))
	}
	m["trace.decode_ns_per_rec"] = median(perRec)
	return nil
}

// buildLayer times design construction per family, and the bytes each
// construction allocates.
func buildLayer(m map[string]float64) error {
	sys := system(sweepInstr, 1)
	const reps = 5
	for _, d := range buildDesigns {
		var t, b []float64
		for i := 0; i < reps; i++ {
			a0 := allocBytes()
			t0 := time.Now()
			_, _, _, err := design.Build(d, sys)
			el := time.Since(t0)
			if err != nil {
				return err
			}
			t = append(t, millis(el))
			b = append(b, float64(allocBytes()-a0)/1e6)
		}
		f := family(d)
		m["build."+f+".ms"] = median(t)
		m["build."+f+".mb"] = median(b)
	}
	return nil
}

// encodeStoreLayers times api.Encode and the store tiers on the sweep's
// results.
func encodeStoreLayers(rec *recorder, dir string, res []sim.Result, m map[string]float64) error {
	const reps = 20
	var docs [][]byte
	m["api.encode_run_us"] = perOp(replayReps, reps*len(res), func() time.Duration {
		docs = docs[:0]
		return spanned(rec, "api.Encode run", func() {
			for i := 0; i < reps; i++ {
				for _, r := range res {
					doc, _ := api.Encode(api.NewRun(r))
					docs = append(docs, doc)
				}
			}
		})
	}) / 1e3
	m["api.encode_sweep_us"] = perOp(replayReps, reps, func() time.Duration {
		return spanned(rec, "api.Encode sweep", func() {
			for i := 0; i < reps; i++ {
				api.Encode(api.NewSweep(res))
			}
		})
	}) / 1e3
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		return err
	}
	keys := make([]string, len(res))
	for i, r := range res {
		keys[i] = store.RunKey(r.Design, r.Workload, 1, config.DefaultScale, sweepInstr, uint64(i), false)
	}
	docs = docs[:len(res)]
	n := len(res)
	m["store.disk_put_us"] = perOp(1, n, func() time.Duration {
		return spanned(rec, "store.Store.PutDisk", func() {
			for i, k := range keys {
				st.PutDisk(k, docs[i])
			}
		})
	}) / 1e3
	for i, k := range keys {
		st.Put(k, docs[i])
	}
	var missing int
	m["store.mem_get_us"] = perOp(replayReps, reps*n, func() time.Duration {
		return spanned(rec, "store.Store.Get", func() {
			for i := 0; i < reps; i++ {
				for _, k := range keys {
					if _, _, ok := st.Get(k); !ok {
						missing++
					}
				}
			}
		})
	}) / 1e3
	m["store.disk_get_us"] = perOp(replayReps, n, func() time.Duration {
		return spanned(rec, "store.Store.GetDisk", func() {
			for _, k := range keys {
				if _, ok := st.GetDisk(k); !ok {
					missing++
				}
			}
		})
	}) / 1e3
	if missing > 0 {
		return fmt.Errorf("store: %d stored keys not found", missing)
	}
	return nil
}

// runTraced is the traced run: every workload's layers, each pass with
// its own span recorder, written out at the end.
func runTraced(e *env, spansPath string) (map[string]float64, error) {
	m := map[string]float64{}
	recs := map[string]*recorder{}
	pass := func(name string) *recorder {
		recs[name] = newRecorder()
		return recs[name]
	}

	rc, sys, err := record(simSeed(e.seed, 3))
	if err != nil {
		return nil, err
	}
	layers := pass("layers")
	if err := accessLayers(layers, rc, sys, m); err != nil {
		return nil, err
	}
	genLayer(simSeed(e.seed, 3), m)
	if err := buildLayer(m); err != nil {
		return nil, err
	}
	tr, _, err := traceFile(e.seed)
	if err != nil {
		return nil, err
	}
	if err := decodeLayer(layers, tr, m); err != nil {
		return nil, err
	}

	res, err := sweepLayers(e, pass("sweep"), m)
	if err != nil {
		return nil, err
	}
	if err := encodeStoreLayers(layers, filepath.Join(e.work, "store-layer"), res, m); err != nil {
		return nil, err
	}
	if err := dseLayers(e, pass("dse-screen"), m); err != nil {
		return nil, err
	}
	if err := serveLayers(e, pass("serve"), m); err != nil {
		return nil, err
	}

	for name, r := range recs {
		path := strings.TrimSuffix(spansPath, ".jsonl") + "-" + name + ".jsonl"
		if err := r.write(path); err != nil {
			return nil, err
		}
	}
	return m, nil
}
