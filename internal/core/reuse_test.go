package core

import (
	"math/rand"
	"reflect"
	"testing"

	"hybridmem/internal/config"
	"hybridmem/internal/cow"
	"hybridmem/internal/design"
	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
)

// reuseDesigns mixes every registered Hybrid2 family, with geometries
// that grow and shrink the XTA, the NM pool and the remap tables.
var reuseDesigns = []string{
	"H2DSE-64-2-256", "H2DSE-64-2-512", "HYBRID2", "H2-CacheOnly", "H2-MigrAll",
	"H2-MigrNone", "H2-NoRemap", "H2DSE-16-1-64", "H2DSE-256-4-1024", "H2DSE-32-8-256",
	"H2ABL-free-300", "H2ABL-assoc-4", "H2ABL-ctr-3", "H2ABL-stack-2",
}

// pristine returns h's state with the reset bookkeeping and the devices
// cleared and the remap tables replaced by their checksums, so that two
// organizations in the same state compare equal with reflect.DeepEqual.
func pristine(h *Hybrid2) (Hybrid2, [2]uint64) {
	c := *h
	c.nm, c.fm = nil, nil
	c.xtaFilled, c.slotsTouched, c.freeFM = nil, nil, nil
	sums := [2]uint64{c.remap.Sum(), c.invRemap.Sum()}
	c.remap, c.invRemap = cow.Table[uint32]{}, cow.Table[uint32]{}
	return c, sums
}

// checkResetState fails unless h, just reset, is in the state fresh,
// just built, is in, and the arrays it keeps beyond their lengths hold
// what a later, larger Reset expects to find there.
func checkResetState(t *testing.T, round int, name string, h, fresh *Hybrid2) {
	t.Helper()
	if !h.CheckInvariants() {
		t.Fatalf("round %d %s: invariants violated right after Reset", round, name)
	}
	if len(h.xtaFilled) != 0 || len(h.slotsTouched) != 0 || len(h.freeFM) != 0 || cap(h.freeFM) < len(h.entries) {
		t.Fatalf("round %d %s: reset left bookkeeping behind", round, name)
	}
	got, gotSums := pristine(h)
	want, wantSums := pristine(fresh)
	if !reflect.DeepEqual(got, want) || gotSums != wantSums {
		t.Fatalf("round %d %s: reset state differs from a fresh build", round, name)
	}
	for i, e := range h.entries[:cap(h.entries)] {
		if e != (xtaEntry{}) {
			t.Fatalf("round %d %s: XTA entry %d not cleared", round, name, i)
		}
	}
	for i, w := range h.slotListed[:cap(h.slotListed)] {
		if w != 0 {
			t.Fatalf("round %d %s: slot listing word %d not cleared", round, name, i)
		}
	}
	for s, st := range h.slotState[len(h.slotState):cap(h.slotState)] {
		if st != slotFlat {
			t.Fatalf("round %d %s: spare slot state %d is %d", round, name, len(h.slotState)+s, st)
		}
	}
}

// TestReuseMatchesFresh resets one Hybrid2 through the design registry
// over a fixed-seed sequence of Hybrid2 designs and two seeds. Right
// after every Reset the invariants must hold and the state must equal a
// fresh build's; the two must then serve a random request stream with
// identical completion times, traffic, path counters and device energy,
// and the invariants must still hold.
func TestReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var prev *Hybrid2
	for round := range 30 {
		name := reuseDesigns[rng.Intn(len(reuseDesigns))]
		spec, err := design.Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		sys := config.Scaled(256, 1)
		sys.Seed = []uint64{1, 12345}[rng.Intn(2)]
		ms, rnm, rfm, reused, err := spec.Rebuild(prev, sys)
		if err != nil {
			t.Fatal(err)
		}
		h := ms.(*Hybrid2)
		if reused != (prev != nil) || (reused && h != prev) {
			t.Fatalf("round %d %s: reused %v, want a reset of the previous organization", round, name, reused)
		}
		fms, fnm, ffm, err := spec.Build(sys)
		if err != nil {
			t.Fatal(err)
		}
		fresh := fms.(*Hybrid2)
		checkResetState(t, round, name, h, fresh)

		span := int64(h.Sectors()) * int64(h.cfg.SectorBytes) / int64(1+rng.Intn(64))
		now := memtypes.Tick(0)
		for i := range 4000 {
			addr := memtypes.Addr(rng.Int63n(span)) &^ 63
			write := rng.Intn(3) == 0
			now += memtypes.Tick(rng.Intn(30))
			f, r := fresh.Access(now, addr, write), h.Access(now, addr, write)
			if f != r {
				t.Fatalf("round %d %s access %d (%#x): reused done %d, fresh %d", round, name, i, addr, r, f)
			}
		}
		if *fresh.Stats() != *h.Stats() || fresh.PathStats() != h.PathStats() || fresh.SavedCopies() != h.SavedCopies() {
			t.Fatalf("round %d %s: reused stats %+v, fresh %+v", round, name, *h.Stats(), *fresh.Stats())
		}
		if fnm.DynamicEnergyNanoJ() != rnm.DynamicEnergyNanoJ() || ffm.DynamicEnergyNanoJ() != rfm.DynamicEnergyNanoJ() {
			t.Fatalf("round %d %s: device energy differs", round, name)
		}
		if !h.CheckInvariants() {
			t.Fatalf("round %d %s: invariants violated after the run", round, name)
		}
		prev = h
	}
}

// TestReuseRefusesOtherTypes checks that a Hybrid2 family's Reset
// declines an organization of another type, and that Rebuild then builds
// a fresh Hybrid2.
func TestReuseRefusesOtherTypes(t *testing.T) {
	spec, err := design.Parse("HYBRID2")
	if err != nil {
		t.Fatal(err)
	}
	sys := config.Scaled(256, 1)
	nm, fm := memsys.New(memsys.HBM2Config()), memsys.New(memsys.DDR4Config())
	if spec.Info.Reset(otherMS{}, spec, sys, nm, fm) {
		t.Fatal("Hybrid2's Reset accepted a foreign organization")
	}
	ms, _, _, reused, err := spec.Rebuild(otherMS{}, sys)
	if err != nil || reused {
		t.Fatalf("Rebuild over a foreign organization: reused %v, err %v", reused, err)
	}
	if _, ok := ms.(*Hybrid2); !ok {
		t.Fatalf("Rebuild returned %T", ms)
	}
}

// otherMS is a memory system of a type no registered family builds.
type otherMS struct{}

func (otherMS) Name() string                                                    { return "other" }
func (otherMS) Access(now memtypes.Tick, _ memtypes.Addr, _ bool) memtypes.Tick { return now }
func (otherMS) Finish(memtypes.Tick)                                            {}
func (otherMS) Stats() *memtypes.MemStats                                       { return &memtypes.MemStats{} }
