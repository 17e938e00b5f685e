package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Trace groups the spans of one simulation run or one request.
//
// An interval span covers [Start, End). An aggregate span stands for
// many short calls made inside its parent (one per Access or NextBatch),
// timed individually and summed into Busy: recording each call as its
// own span would cost more memory than the runs being measured. Its
// Start and End bracket the first and last call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
	Busy   int64  `json:"busy_ns,omitempty"` // aggregate spans only
	Calls  int64  `json:"calls,omitempty"`   // aggregate spans only
}

// aggregate reports whether s sums many calls rather than one interval.
func (s *span) aggregate() bool { return s.Calls > 0 }

// dur is the time the span's own calls took.
func (s *span) dur() int64 {
	if s.aggregate() {
		return s.Busy
	}
	return s.End - s.Start
}

// recorder keeps spans in memory; write dumps them when the run ends.
// A nil *recorder records nothing, so untraced passes share the traced
// passes' code.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens an interval span and returns its id; -1 on a nil recorder.
func (r *recorder) begin(trace, parent int, name string) int {
	if r == nil {
		return -1
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: t, End: t})
	return id
}

// end closes an interval span opened by begin.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	t := r.now()
	r.mu.Lock()
	r.spans[id].End = t
	r.mu.Unlock()
}

// addAggregate records the summed time of calls made under parent.
func (r *recorder) addAggregate(trace, parent int, name string, first, last, busy, calls int64) {
	if r == nil || calls == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Trace: trace, Name: name,
		Start: first, End: last, Busy: busy, Calls: calls})
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write dumps every span as one JSON object per line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// its children cover. Interval children cover the union of their
// intervals clipped to the parent; aggregate children cover their Busy
// time, which lies inside the parent and outside its interval children
// because the calls it sums are made by the parent itself.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		p := &spans[i]
		var covered int64
		var ivs [][2]int64
		for _, k := range kids[i] {
			c := &spans[k]
			if c.aggregate() {
				covered += c.Busy
				continue
			}
			lo, hi := max(c.Start, p.Start), min(c.End, p.End)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		covered += unionLen(ivs)
		self[i] = max(p.dur()-covered, 0)
	}
	return self
}

// unionLen is the total length covered by a set of intervals.
func unionLen(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total, curLo, curHi int64
	open := false
	for _, iv := range ivs {
		if !open || iv[0] > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = iv[0], iv[1], true
			continue
		}
		curHi = max(curHi, iv[1])
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := map[string]int64{}
	for i, s := range spans {
		out[s.Name] += self[i]
	}
	return out
}

// durByName sums duration per span name.
func durByName(spans []span) map[string]int64 {
	out := map[string]int64{}
	for i := range spans {
		out[spans[i].Name] += spans[i].dur()
	}
	return out
}
