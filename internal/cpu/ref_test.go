package cpu

import (
	"math/rand"
	"testing"

	"hybridmem/internal/memtypes"
)

// scanCore is the linear-scan core the heap-ordered MSHRs and write
// buffer replaced, kept as a reference model: each stall scans its
// entries for the first minimum, stalls to it and overwrites it.
type scanCore struct {
	Time        memtypes.Tick
	issueWidth  uint64
	computeRem  uint64
	outstanding []memtypes.Tick
	writeBuf    []memtypes.Tick
}

func (c *scanCore) advanceCompute(gap uint64) {
	work := gap + c.computeRem
	c.Time += memtypes.Tick(work / c.issueWidth)
	c.computeRem = work % c.issueWidth
}

func (c *scanCore) stall(entries []memtypes.Tick, done memtypes.Tick) {
	oldest := 0
	for i, t := range entries {
		if t < entries[oldest] {
			oldest = i
		}
	}
	if wait := entries[oldest]; wait > c.Time {
		c.Time = wait
	}
	entries[oldest] = done
}

func (c *scanCore) drainMisses() {
	for _, t := range c.outstanding {
		if t > c.Time {
			c.Time = t
		}
	}
}

// TestHeapCoreMatchesScanModel drives a Core and a scanCore through the
// same random AdvanceCompute, AddLatency, StallForMiss, StallForWrite and
// DrainMisses sequences at every MLP from 1 to 8; Time must agree after
// every call. Completion times are drawn both ahead of and behind the
// core's time, with frequent ties, so stalls, no-op stalls and equal
// minima all occur.
func TestHeapCoreMatchesScanModel(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for mlp := 1; mlp <= 8; mlp++ {
		for seq := range 20 {
			got := New(4, mlp)
			want := &scanCore{
				issueWidth:  4,
				outstanding: make([]memtypes.Tick, mlp),
				writeBuf:    make([]memtypes.Tick, 16),
			}
			for i := range 2000 {
				op := rng.Intn(10)
				done := want.Time + memtypes.Tick(rng.Intn(400))
				if d := memtypes.Tick(rng.Intn(40)); done >= d {
					done -= d
				}
				if rng.Intn(4) == 0 {
					done = want.Time + memtypes.Tick(100*rng.Intn(3))
				}
				switch {
				case op < 3:
					gap := uint64(rng.Intn(30))
					got.AdvanceCompute(gap)
					want.advanceCompute(gap)
				case op == 3:
					got.AddLatency(14)
					want.Time += 14
				case op < 7:
					got.StallForMiss(done)
					want.stall(want.outstanding, done)
				case op < 9:
					got.StallForWrite(done)
					want.stall(want.writeBuf, done)
				default:
					got.DrainMisses()
					want.drainMisses()
				}
				if got.Time != want.Time {
					t.Fatalf("mlp %d sequence %d op %d (kind %d): heap core at %d, scan core at %d",
						mlp, seq, i, op, got.Time, want.Time)
				}
			}
		}
	}
}
