package design_test

import (
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"testing"

	"hybridmem/internal/baselines/migcommon"
	"hybridmem/internal/config"
	"hybridmem/internal/cow"
	"hybridmem/internal/design"
	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
	"hybridmem/internal/sim"
	"hybridmem/internal/workload"
)

// sharedSpecs covers every family whose initial layout is a copy-on-write
// table, with two H2DSE points that share a placement key (they differ
// in line size only).
var sharedSpecs = []string{
	"HYBRID2", "H2DSE-128-4-256", "H2DSE-128-4-512", "H2-CacheOnly",
	"H2ABL-free-500", "MPOD", "LGM", "CAMEO",
}

type instance struct {
	name   string
	ms     memtypes.MemorySystem
	nm, fm *memsys.Device
}

func buildInstance(t *testing.T, name string, sys config.System) instance {
	t.Helper()
	spec, err := design.Parse(name)
	if err != nil {
		t.Fatal(err)
	}
	ms, nm, fm, err := spec.Build(sys)
	if err != nil {
		t.Fatal(err)
	}
	return instance{name, ms, nm, fm}
}

// invariantsHold runs the family's own invariant check, where it has one.
func invariantsHold(ms memtypes.MemorySystem) bool {
	switch m := ms.(type) {
	case interface{ CheckInvariants() bool }:
		return m.CheckInvariants()
	case interface{ Space() *migcommon.Space }:
		return m.Space().CheckInvariants()
	}
	return true
}

// TestSharedLayoutsIsolated builds several instances of each family that
// shares its initial layout, all forks of one pinned layout, and runs
// them concurrently in shuffled order. Every result must equal the run
// of a lone instance over a freshly built layout, every instance must
// keep its invariants, and no run may write through a fork into a
// pinned layout.
func TestSharedLayoutsIsolated(t *testing.T) {
	defer cow.Reset()
	sys := config.Scaled(16, 1)
	sys.InstrPerCore = 20_000
	wl, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("no workload mcf")
	}

	want := map[string]string{}
	for _, name := range sharedSpecs {
		// A fresh layout with no other user: the reference run sees the
		// values a private build holds even if its writes leaked into it.
		cow.Reset()
		in := buildInstance(t, name, sys)
		want[name] = fmt.Sprintf("%#v", sim.Run(wl, in.ms, in.nm, in.fm, sys))
	}

	cow.Reset()
	var insts []instance
	pinned := map[any]interface{ Sum() uint64 }{}
	for _, name := range sharedSpecs {
		for range 3 {
			insts = append(insts, buildInstance(t, name, sys))
		}
		maps.Copy(pinned, cow.Pinned())
	}
	// HYBRID2 and H2ABL share one placement, the H2DSE pair another;
	// CacheOnly and the migcommon space have one each. CAMEO's periodic
	// slots are built without the memo.
	if len(pinned) != 4 {
		t.Fatalf("%d layouts pinned, want 4", len(pinned))
	}
	sums := map[any]uint64{}
	for k, l := range pinned {
		sums[k] = l.Sum()
	}

	rand.New(rand.NewSource(1)).Shuffle(len(insts), func(i, j int) { insts[i], insts[j] = insts[j], insts[i] })
	jobs := make(chan instance)
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for in := range jobs {
				got := fmt.Sprintf("%#v", sim.Run(wl, in.ms, in.nm, in.fm, sys))
				if got != want[in.name] {
					t.Errorf("%s: shared-layout run differs from a lone build:\n got %s\nwant %s", in.name, got, want[in.name])
				}
				if !invariantsHold(in.ms) {
					t.Errorf("%s: invariants violated after the run", in.name)
				}
			}
		}()
	}
	for _, in := range insts {
		jobs <- in
	}
	close(jobs)
	wg.Wait()

	for k, l := range pinned {
		if l.Sum() != sums[k] {
			t.Errorf("pinned layout %#v changed during the runs", k)
		}
	}
}

// TestLayoutKeyMatchesBuild checks each family's LayoutKey against the
// key its build requests from cow.Shared (see cow.LastRequest): equal
// when the build requests a layout, nil when it requests none. It covers
// every registered family's sample name and every enumerated H2DSE, MPOD
// and LGM point, at scales 16 and 64 and two seeds. A point whose build
// the geometry rejects requests nothing and is skipped, but every family
// must build at least once.
func TestLayoutKeyMatchesBuild(t *testing.T) {
	defer cow.Reset()
	var specs []design.Spec
	for _, info := range design.AllInfos() {
		spec, err := design.Parse(info.SampleName())
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	for _, name := range []string{"H2DSE", "MPOD", "LGM"} {
		info, ok := design.LookupInfo(name)
		if !ok {
			t.Fatalf("no family %s", name)
		}
		enum, err := info.Enumerate(design.EnumOptions{})
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, enum...)
	}
	built := map[string]int{}
	for _, scale := range []int{16, 64} {
		for _, seed := range []uint64{1, 0x5EED} {
			sys := config.Scaled(scale, 1)
			sys.Seed = seed
			for _, spec := range specs {
				before, _ := cow.LastRequest()
				if _, _, _, err := spec.Build(sys); err != nil {
					continue
				}
				built[spec.Info.Name]++
				n, key := cow.LastRequest()
				want := spec.LayoutKey(sys)
				switch {
				case n > before+1:
					t.Errorf("%s scale %d seed %d: the build requested %d layouts", spec.Name, scale, seed, n-before)
				case n == before && want != nil:
					t.Errorf("%s scale %d seed %d: LayoutKey %#v, but the build requested no layout", spec.Name, scale, seed, want)
				case n == before+1 && key != want:
					t.Errorf("%s scale %d seed %d: LayoutKey %#v, but the build requested %#v", spec.Name, scale, seed, want, key)
				}
			}
		}
	}
	for _, info := range design.AllInfos() {
		if built[info.Name] == 0 {
			t.Errorf("%s: no point built, so its LayoutKey went unchecked", info.Name)
		}
	}
}
