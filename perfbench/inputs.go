package main

import (
	"hybridmem"
	"hybridmem/internal/dse"
)

// Every input below is a pure function of the benchmark seed, so two
// runs with one seed simulate exactly the same things. The seed varies
// simulation seeds and the order of the serve mix, never the set of
// designs, workloads or search candidates, so run cost stays comparable
// across seeds.

// workers bounds the simulations the benchmark runs at once: the CPU
// count of the 2-CPU machine the bounds were set on.
const workers = 2

// sweepDesigns is the baseline plus the 12 fixed main and extra designs.
var sweepDesigns = []string{
	"Baseline", "MPOD", "CHA", "LGM", "TAGLESS", "DFC", "HYBRID2",
	"CAMEO", "POM", "SILC-FM", "ALLOY", "FOOTPRINT", "BANSHEE",
}

// sweepWorkloads span the MPKI classes (mcf, lbm, cg.D high; omnetpp,
// xz medium; namd low), rate and multi-threaded kinds, and streaming
// (lbm) against pointer-chasing (mcf, omnetpp) spatial locality.
var sweepWorkloads = []string{"mcf", "lbm", "omnetpp", "xz", "cg.D", "namd"}

// sweepInstr is the evaluation's full per-core budget.
const sweepInstr = 1_000_000

// dseFamilies and dseWorkloads define the screened search space.
var (
	dseFamilies  = []string{"H2DSE", "MPOD", "DFC", "IDEAL", "CAMEO", "CHA", "LGM"}
	dseWorkloads = []string{"mcf", "lbm", "xz", "namd"}
)

// splitmix64 finalizer: the seed derivation of every generated input.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// simSeed derives a positive simulation seed for input slot i. Seeds
// stay below 2^31 so they survive every JSON surface unchanged.
func simSeed(seed uint64, i int) uint64 {
	return 1 + mix(seed^mix(uint64(i)+0x51ED))%(1<<31-1)
}

func sweepConfig(seed uint64) hybridmem.Config {
	cfg := hybridmem.DefaultConfig()
	cfg.InstrPerCore = sweepInstr
	cfg.Seed = simSeed(seed, 0)
	return cfg
}

func dseOptions(seed uint64) dse.Options {
	return dse.Options{
		Families:           dseFamilies,
		Workloads:          dseWorkloads,
		Budget:             16,
		BatchSize:          8,
		Seed:               1, // fixed: the sampled candidates set the cost
		Scale:              16,
		InstrPerCore:       30_000,
		SimSeed:            simSeed(seed, 2),
		Ratio16:            1,
		ScreenInstrPerCore: 3_000,
		// Covers the whole 422-candidate space, so the screened set
		// does not depend on the seed.
		ScreenBudget: 512,
		Parallelism:  workers,
	}
}

// Serve workload request mix.

type reqKind int

const (
	kindCold   reqKind = iota // /v1/run with a fresh seed: simulate, store put
	kindWarm                  // /v1/run of a stored key: store read path
	kindJob                   // /v1/sweep job through the coordinator
	kindReplay                // /v1/replay upload of the generated trace
)

var kindNames = [...]string{"cold", "warm", "job", "replay"}

type request struct {
	kind     reqKind
	design   string
	workload string
	seed     uint64
}

const (
	serveInstr = 200_000 // per-core budget of /v1/run and job runs
	// traceWorkload and traceInstr generate the replayed trace.
	traceWorkload = "omnetpp"
	traceInstr    = 100_000
)

// serveDesigns × serveWorkloads are the run requests' (design,
// workload) pairs; every round asks for each pair once cold and the
// warm set holds each pair once, so a round's simulation cost does not
// depend on the seed.
var (
	serveDesigns   = []string{"HYBRID2", "MPOD", "DFC", "CAMEO", "CHA", "TAGLESS", "LGM", "BANSHEE"}
	serveWorkloads = []string{"mcf", "xz"}
	// jobDesigns × jobWorkloads is one /v1/sweep job.
	jobDesigns   = []string{"HYBRID2", "MPOD", "DFC", "CAMEO"}
	jobWorkloads = []string{"lbm", "xz"}
	// replayDesigns are replayed once each per round.
	replayDesigns = []string{"HYBRID2", "DFC"}
)

// warmSet lists the runs stored during set-up; rounds read them back.
func warmSet(seed uint64) []request {
	var out []request
	for _, d := range serveDesigns {
		for _, w := range serveWorkloads {
			out = append(out, request{kind: kindWarm, design: d, workload: w, seed: simSeed(seed, 1000+len(out))})
		}
	}
	return out
}

// serveRound is round r's request sequence: every pair cold with a
// fresh seed, every warm key twice (its first read after a restart
// comes from the disk tier, its second from memory), one sweep job and
// the replays, in a seeded order.
func serveRound(seed uint64, r int) []request {
	warm := warmSet(seed)
	var out []request
	for i, w := range warm {
		out = append(out, request{kind: kindCold, design: w.design, workload: w.workload,
			seed: simSeed(seed, 1_000_000*(r+1)+i)})
	}
	out = append(out, warm...)
	out = append(out, warm...)
	out = append(out, request{kind: kindJob, seed: simSeed(seed, 1_000_000*(r+1)+999)})
	for _, d := range replayDesigns {
		out = append(out, request{kind: kindReplay, design: d})
	}
	// Fisher-Yates with the derived stream.
	x := mix(seed ^ uint64(r+1)*0x9E37)
	for i := len(out) - 1; i > 0; i-- {
		x = mix(x)
		j := int(x % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}
