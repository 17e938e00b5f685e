package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// allocBytes returns the bytes the process has allocated so far.
func allocBytes() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// maxRSSMB returns the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 11

// timeSetup runs fn setupReps times and returns the durations.
func timeSetup(fn func() error) ([]time.Duration, error) {
	var out []time.Duration
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0))
	}
	return out, nil
}

// round is the measurement of one repetition of a workload's unit of
// work: its wall time, bytes allocated, the latencies of the
// operations a user waits on, and the simulations it executed.
type round struct {
	wall  time.Duration
	alloc uint64
	ops   []time.Duration
	sims  int
	instr uint64 // simulated instructions
}

// measureRounds repeats fn until seconds have elapsed and at least
// minRounds rounds ran, timing each round and counting its allocation.
func measureRounds(seconds float64, minRounds int, fn func(i int) (round, error)) ([]round, error) {
	var out []round
	start := time.Now()
	for i := 0; i < minRounds || time.Since(start).Seconds() < seconds; i++ {
		a0 := allocBytes()
		t0 := time.Now()
		r, err := fn(i)
		if r.wall == 0 {
			r.wall = time.Since(t0)
		}
		r.alloc = allocBytes() - a0
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// endToEnd folds measured rounds into the end-to-end metrics.
func endToEnd(setup []time.Duration, rounds []round) map[string]float64 {
	var setupS, wall, rate, runs, alloc, ops []float64
	for _, d := range setup {
		setupS = append(setupS, d.Seconds())
	}
	for _, r := range rounds {
		w := r.wall.Seconds()
		wall = append(wall, w)
		rate = append(rate, float64(r.instr)/1e6/w)
		runs = append(runs, float64(r.sims)/w)
		alloc = append(alloc, float64(r.alloc)/1e6)
		for _, o := range r.ops {
			ops = append(ops, millis(o))
		}
	}
	return map[string]float64{
		"setup_s":          median(setupS),
		"wall_s":           median(wall),
		"sim_minstr_per_s": median(rate),
		"runs_per_s":       median(runs),
		"alloc_mb":         median(alloc),
		"max_rss_mb":       maxRSSMB(),
		"op_p50_ms":        quantile(ops, 0.5),
		"op_p90_ms":        quantile(ops, 0.9),
	}
}
