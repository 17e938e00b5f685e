package dramcache

import (
	"math/rand"
	"testing"

	"hybridmem/internal/memtypes"
)

// TestReuseMatchesFresh drives one cache through a fixed-seed sequence of
// configurations from every member of the family, resetting it between
// them over fresh devices. Right after each Reset its arrays must be
// zero up to their capacity, and it must then serve a random request
// stream exactly as a new cache does: the completion time of every
// request, the traffic counters after Finish and the devices' energy.
func TestReuseMatchesFresh(t *testing.T) {
	const nmBytes = 1 << 20
	cfgs := []Config{
		DFC(nmBytes, 64), Ideal(nmBytes, 64), Alloy(nmBytes), Tagless(nmBytes),
		DFC(nmBytes, 1024), Ideal(nmBytes, 256), DFC(nmBytes/4, 128), Ideal(nmBytes*2, 64),
	}
	rng := rand.New(rand.NewSource(11))
	var reused *Cache
	for round := range 24 {
		cfg := cfgs[rng.Intn(len(cfgs))]
		rnm, rfm := devices()
		if reused == nil {
			reused = New(cfg, rnm, rfm)
		} else {
			reused.Reset(cfg, rnm, rfm)
		}
		for name, s := range map[string][]uint64{"tags": reused.tags, "used": reused.used, "lrus": reused.lrus} {
			for i, v := range s[:cap(s)] {
				if v != 0 {
					t.Fatalf("round %d %s: %s[%d] = %#x after Reset", round, cfg.Name, name, i, v)
				}
			}
		}
		fnm, ffm := devices()
		fresh := New(cfg, fnm, ffm)
		span := int64(cfg.NMBytes) * int64(1+rng.Intn(6)) / int64(1+rng.Intn(16))
		now := memtypes.Tick(0)
		for i := range 3000 {
			addr := memtypes.Addr(rng.Int63n(span)) &^ 63
			write := rng.Intn(4) == 0
			now += memtypes.Tick(rng.Intn(40))
			f, r := fresh.Access(now, addr, write), reused.Access(now, addr, write)
			if f != r {
				t.Fatalf("round %d %s access %d (%#x): reused done %d, fresh %d", round, cfg.Name, i, addr, r, f)
			}
		}
		fresh.Finish(now)
		reused.Finish(now)
		if *fresh.Stats() != *reused.Stats() {
			t.Fatalf("round %d %s: reused stats %+v, fresh %+v", round, cfg.Name, *reused.Stats(), *fresh.Stats())
		}
		if fnm.DynamicEnergyNanoJ() != rnm.DynamicEnergyNanoJ() || ffm.DynamicEnergyNanoJ() != rfm.DynamicEnergyNanoJ() {
			t.Fatalf("round %d %s: device energy differs", round, cfg.Name)
		}
	}
}
