package cameo

import (
	"math/rand"
	"testing"

	"hybridmem/internal/memsys"
	"hybridmem/internal/memtypes"
)

func newSmall(seed uint64) *CAMEO {
	cfg := Default(1<<20, 8<<20, 512, seed)
	return New(cfg, memsys.New(memsys.HBM2Config()), memsys.New(memsys.DDR4Config()))
}

func TestGeometry(t *testing.T) {
	c := newSmall(1)
	if c.groups != 1<<20/64 {
		t.Fatalf("groups %d, want one per NM line", c.groups)
	}
	if c.k != 8 {
		t.Fatalf("k %d, want FM:NM ratio 8", c.k)
	}
	if !c.CheckInvariants() {
		t.Fatal("initial state invalid")
	}
}

func TestAccessSwapsLineIntoNM(t *testing.T) {
	c := newSmall(2)
	// Find a raw address resolving to an FM-resident grouped line.
	var addr memtypes.Addr
	for raw := uint32(0); raw < c.Lines(); raw++ {
		l := c.scramble(raw)
		if l >= c.groups*(c.k+1) {
			continue
		}
		if c.slots.At(int(uint64(l%c.groups)*uint64(c.k+1)+uint64(l/c.groups))) != 0 {
			addr = memtypes.Addr(raw) * 64
			break
		}
	}
	c.Access(0, addr, false)
	if c.Stats().Migrations != 1 {
		t.Fatalf("migrations %d, want 1 (CAMEO swaps on every FM access)", c.Stats().Migrations)
	}
	// The second access must be served from NM.
	c.Access(5000, addr, false)
	if c.Stats().ServedNM != 1 {
		t.Fatalf("line not NM-resident after swap: %+v", c.Stats())
	}
	if !c.CheckInvariants() {
		t.Fatal("group state invalid after swap")
	}
}

func TestGroupInvariantsUnderTraffic(t *testing.T) {
	c := newSmall(3)
	rng := rand.New(rand.NewSource(7))
	space := uint64(c.Lines()) * 64
	var now memtypes.Tick
	for i := 0; i < 30000; i++ {
		now += 50
		c.Access(now, memtypes.Addr(rng.Uint64()%space), rng.Intn(4) == 0)
	}
	if !c.CheckInvariants() {
		t.Fatal("group invariants violated")
	}
	s := c.Stats()
	if s.ServedNM+s.ServedFM != s.Requests {
		t.Fatalf("served sums %d+%d != requests %d", s.ServedNM, s.ServedFM, s.Requests)
	}
	if s.Migrations == 0 {
		t.Fatal("no swaps under random traffic")
	}
}

func TestFineGranularityNoOverfetch(t *testing.T) {
	// CAMEO moves exactly one 64 B line per swap: FM read bytes must be
	// 64 per served-FM access (demand), plus nothing else.
	c := newSmall(4)
	var now memtypes.Tick
	for i := 0; i < 1000; i++ {
		now += 100
		c.Access(now, memtypes.Addr(i)*64, false)
	}
	s := c.Stats()
	if s.FMReadBytes != s.ServedFM*64 {
		t.Fatalf("FM reads %d for %d FM-served accesses: over-fetch", s.FMReadBytes, s.ServedFM)
	}
}

func TestPinnedLinesNeverMigrate(t *testing.T) {
	c := newSmall(5)
	if c.pinned == 0 {
		t.Skip("no pinned remainder in this geometry")
	}
	pinned := c.groups*(c.k+1) + c.pinned - 1
	var raw memtypes.Addr
	for r := uint32(0); r < c.Lines(); r++ {
		if c.scramble(r) == pinned {
			raw = memtypes.Addr(r) * 64
			break
		}
	}
	before := c.Stats().Migrations
	for i := 0; i < 50; i++ {
		c.Access(memtypes.Tick(i)*100, raw, false)
	}
	if c.Stats().Migrations != before {
		t.Fatal("pinned line triggered a swap")
	}
}
