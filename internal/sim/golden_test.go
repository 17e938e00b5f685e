package sim_test

// The golden digest pins every field of every Result for a fixed matrix
// of designs and workloads against a constant recorded before the
// simulation hot path (LLC replacement, MSHRs and write buffer, run-loop
// scheduler) was last rewritten. Unlike the reference-loop tests in
// engine_test.go, it shares no component with the code it checks, so a
// change to any of them that moves one bit of one Result fails here.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"reflect"
	"testing"

	"hybridmem/internal/cachesim"
	"hybridmem/internal/config"
	"hybridmem/internal/design"
	"hybridmem/internal/sim"
	"hybridmem/internal/workload"
)

// goldenDigest is the SHA-256 of the golden matrix's Results, each
// field hashed in declaration order (see hashValue).
const goldenDigest = "c8aaad270693aaf3f718eb264e757ec35b908e3b8368bc22f8d44b8ccf3d29b0"

// goldenDesigns are the baseline and the 12 fixed designs of the sweep,
// plus one parameterized Hybrid2 and one ideal cache.
var goldenDesigns = []string{
	"Baseline", "MPOD", "CHA", "LGM", "TAGLESS", "DFC", "HYBRID2",
	"CAMEO", "POM", "SILC-FM", "ALLOY", "FOOTPRINT", "BANSHEE",
	"H2DSE-64-2-256", "IDEAL-64",
}

// goldenWorkloads are three high-MPKI workloads: pointer-chasing (mcf,
// MLP 1), streaming (lbm) and multi-threaded (cg.D).
var goldenWorkloads = []string{"mcf", "lbm", "cg.D"}

// hashValue writes v's fields to h recursively: unsigned integers as 8
// little-endian bytes, floats as their IEEE-754 bits, strings
// length-prefixed.
func hashValue(t *testing.T, h hash.Hash, v reflect.Value) {
	var b [8]byte
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			hashValue(t, h, v.Field(i))
		}
		return
	case reflect.Uint64:
		binary.LittleEndian.PutUint64(b[:], v.Uint())
	case reflect.Float64:
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.Float()))
	case reflect.String:
		binary.LittleEndian.PutUint64(b[:], uint64(v.Len()))
		h.Write(b[:])
		h.Write([]byte(v.String()))
		return
	default:
		t.Fatalf("hashValue: unhandled kind %v", v.Kind())
	}
	h.Write(b[:])
}

// TestGoldenResultDigest runs the golden matrix, workload-major, through
// one shared LLC (the reuse path of the parallel sweep workers) and
// compares the digest of all Results with goldenDigest.
func TestGoldenResultDigest(t *testing.T) {
	sys := config.Scaled(config.DefaultScale, 16)
	sys.InstrPerCore = 50_000
	sys.Seed = 11
	llc := new(cachesim.Cache)
	h := sha256.New()
	for _, wname := range goldenWorkloads {
		spec, ok := workload.ByName(wname)
		if !ok {
			t.Fatalf("workload %s missing", wname)
		}
		for _, dname := range goldenDesigns {
			ms, nm, fm, err := design.Build(dname, sys)
			if err != nil {
				t.Fatalf("build %s: %v", dname, err)
			}
			res := sim.RunOn(llc, spec, ms, nm, fm, sys, nil)
			if res.Instructions == 0 || res.Cycles == 0 {
				t.Fatalf("%s/%s: empty result %+v", wname, dname, res)
			}
			hashValue(t, h, reflect.ValueOf(res))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenDigest {
		t.Fatalf("golden Result digest %s, want %s: some Result of the golden matrix changed", got, goldenDigest)
	}
}
