package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"hybridmem"
	"hybridmem/internal/api"
	"hybridmem/internal/config"
	"hybridmem/internal/sim"
	"hybridmem/internal/trace"
	"hybridmem/internal/workload"
)

// The serve workload: an in-process hybridmem.Serve coordinator with a
// store directory and two loopback cluster runners, driven over
// loopback HTTP by one client that waits for each reply, like a
// researcher's script. (With two clients, a warm read's latency
// depended mostly on whether both CPUs were busy simulating cold runs.) The seeded mix has cold runs (simulate and store put),
// warm repeats read from the disk tier after a restart and then from
// memory, a sweep job dispatched through the coordinator, and binary
// trace replays. The cost sits in the store, encoding, HTTP, the
// cluster and trace decode. One operation is one request; a job counts
// from submission to its result.

// server is one running hybridmem.Serve.
type server struct {
	base    string
	cancel  context.CancelFunc
	done    chan error
	once    sync.Once
	stopErr error
}

func startServer(storeDir string) (*server, error) {
	ctx, cancel := context.WithCancel(context.Background())
	addr := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- hybridmem.Serve(ctx, hybridmem.ServeOptions{
			Addr:                   "127.0.0.1:0",
			StoreDir:               storeDir,
			Workers:                1,
			Parallelism:            1,
			ClusterLoopbackRunners: workers,
			OnListen:               func(a string) { addr <- a },
		})
	}()
	select {
	case a := <-addr:
		return &server{base: "http://" + a, cancel: cancel, done: done}, nil
	case err := <-done:
		cancel()
		return nil, fmt.Errorf("serve: %w", err)
	}
}

// stop shuts the server down and waits for it to exit. Later calls
// return the first call's result.
func (s *server) stop() error {
	s.once.Do(func() {
		httpClient.CloseIdleConnections()
		s.cancel()
		s.stopErr = <-s.done
	})
	return s.stopErr
}

var httpClient = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers}}

// do sends one request and returns the body of a 2xx reply.
func do(method, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, strings.TrimSpace(string(data)))
	}
	return data, nil
}

func runConfig(seed uint64) api.Config {
	return api.Config{Scale: config.DefaultScale, NMRatio16: 1, InstrPerCore: serveInstr, Seed: seed}
}

// send issues one request of the mix and returns the result document.
func send(base string, q request, tr []byte) ([]byte, error) {
	switch q.kind {
	case kindCold, kindWarm:
		body, _ := json.Marshal(map[string]any{"design": q.design, "workload": q.workload, "config": runConfig(q.seed)})
		return do("POST", base+"/v1/run", body)
	case kindJob:
		body, _ := json.Marshal(map[string]any{"designs": jobDesigns, "workloads": jobWorkloads, "config": runConfig(q.seed)})
		data, err := do("POST", base+"/v1/sweep", body)
		if err != nil {
			return nil, err
		}
		var sub struct {
			JobID string `json:"job_id"`
		}
		if err := json.Unmarshal(data, &sub); err != nil {
			return nil, err
		}
		// The event stream ends when the job settles.
		if _, err := do("GET", base+"/v1/jobs/"+sub.JobID+"/events", nil); err != nil {
			return nil, err
		}
		return do("GET", base+"/v1/jobs/"+sub.JobID+"/result", nil)
	default:
		return do("PUT", fmt.Sprintf("%s/v1/replay?design=%s&name=bench&scale=%d&nm_ratio16=1&instr_per_core=%d&seed=1&mlp=%d",
			base, q.design, config.DefaultScale, serveInstr, replayMLP), tr)
	}
}

// replayMLP is the replay requests' memory-level parallelism.
const replayMLP = 4

// scrape reads the server's /metrics as series → value.
func scrape(base string) (map[string]float64, error) {
	data, err := do("GET", base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// outcome is one answered request.
type outcome struct {
	q   request
	lat time.Duration
	doc []byte
}

// traceFile generates the replayed binary trace from the seed.
func traceFile(seed uint64) ([]byte, uint64, error) {
	wl, _ := workload.ByName(traceWorkload)
	var buf bytes.Buffer
	w := trace.NewStreamWriter(&buf, trace.FormatBinary, false)
	srcs := streams(wl, system(traceInstr, simSeed(seed, 7)))
	for live := len(srcs); live > 0; {
		live = 0
		for c, s := range srcs {
			gap, addr, write, ok := s.Next()
			if !ok {
				continue
			}
			live++
			if err := w.Append(c, trace.Record{Gap: gap, Addr: addr, Write: write}); err != nil {
				return nil, 0, err
			}
		}
	}
	if err := w.Close(); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), w.Records(), nil
}

// serveState is a set-up serve workload: a running server over a store
// holding the warm set, and the trace to replay.
type serveState struct {
	dir      string
	srv      *server
	warm     map[request][]byte
	tr       []byte
	trRecs   uint64
	seed     uint64
	outcomes []outcome // the answered requests of the first verifyRounds rounds
}

// verifyRounds bounds the rounds whose documents verify recomputes: each
// costs a round's worth of simulation again. Every round's warm reads
// and simulation counts are checked regardless.
const verifyRounds = 4

func serveSetup(e *env, i int) (*serveState, error) {
	st := &serveState{dir: filepath.Join(e.work, fmt.Sprintf("store-%d", i)), warm: map[request][]byte{}, seed: e.seed}
	var err error
	if st.tr, st.trRecs, err = traceFile(e.seed); err != nil {
		return nil, err
	}
	if st.srv, err = startServer(st.dir); err != nil {
		return nil, err
	}
	for _, q := range warmSet(e.seed) {
		doc, err := send(st.srv.base, q, nil)
		if err != nil {
			st.srv.stop()
			return nil, err
		}
		st.warm[q] = doc
	}
	return st, nil
}

// close stops the server and deletes its store.
func (st *serveState) close() error {
	err := st.srv.stop()
	if rerr := os.RemoveAll(st.dir); err == nil {
		err = rerr
	}
	return err
}

// serveRoundRun restarts the server on its store, so warm keys start
// in the disk tier, then plays round r of the mix on the closed loop.
// It returns the round and the /metrics deltas over it.
func (st *serveState) serveRoundRun(t *tally, rec *recorder, r int) (round, []outcome, map[string]float64, error) {
	var rd round
	if err := st.srv.stop(); err != nil {
		return rd, nil, nil, err
	}
	srv, err := startServer(st.dir)
	if err != nil {
		return rd, nil, nil, err
	}
	st.srv = srv
	before, err := scrape(srv.base)
	if err != nil {
		return rd, nil, nil, err
	}
	reqs := serveRound(st.seed, r)
	outs := make([]outcome, len(reqs))
	errs := make([]error, len(reqs))
	t0 := time.Now()
	for i, q := range reqs {
		sp := rec.begin(r*1000+i, -1, "hybridmem.Serve "+kindNames[q.kind])
		q0 := time.Now()
		doc, err := send(srv.base, q, st.tr)
		lat := time.Since(q0)
		rec.end(sp)
		outs[i], errs[i] = outcome{q, lat, doc}, err
		rd.ops = append(rd.ops, lat)
	}
	rd.wall = time.Since(t0)
	after, err := scrape(srv.base)
	if err != nil {
		return rd, nil, nil, err
	}
	delta := map[string]float64{}
	for k, v := range after {
		delta[k] = v - before[k]
	}
	simulated := 0
	for i, o := range outs {
		t.check(errs[i])
		if errs[i] != nil {
			continue
		}
		switch o.q.kind {
		case kindWarm:
			var err error
			if !bytes.Equal(o.doc, st.warm[o.q]) {
				err = fmt.Errorf("serve: warm %s/%s differs from its stored document", o.q.design, o.q.workload)
			}
			t.check(err)
			continue
		case kindCold, kindReplay:
			simulated++
		}
		n, instr, err := docInstr(o.doc)
		t.check(err)
		rd.sims += n
		rd.instr += instr
	}
	var err2 error
	if got := int(delta["hybridmem_sims_total"]); got != simulated {
		err2 = fmt.Errorf("serve: round %d executed %d simulations for %d cold requests", r, got, simulated)
	}
	t.check(err2)
	if r < verifyRounds {
		st.outcomes = append(st.outcomes, outs...)
	}
	return rd, outs, delta, nil
}

// docInstr counts the runs and simulated instructions of a run or
// sweep document.
func docInstr(doc []byte) (int, uint64, error) {
	var d struct {
		Result  *api.Result  `json:"result"`
		Results []api.Result `json:"results"`
	}
	if err := json.Unmarshal(doc, &d); err != nil {
		return 0, 0, err
	}
	if d.Result != nil {
		d.Results = append(d.Results, *d.Result)
	}
	var instr uint64
	for _, r := range d.Results {
		instr += r.Instructions
	}
	return len(d.Results), instr, nil
}

// verify recomputes every cold, job and replay document in process and
// compares bytes. It returns the in-process time of one job's runs.
func (st *serveState) verify(t *tally) (time.Duration, error) {
	outs := st.outcomes
	for q, doc := range st.warm {
		outs = append(outs, outcome{q: request{kind: kindCold, design: q.design, workload: q.workload, seed: q.seed}, doc: doc})
	}
	var uniq []request
	idx := map[request]int{}
	for _, o := range outs {
		if _, ok := idx[o.q]; !ok && o.doc != nil && o.q.kind != kindWarm {
			idx[o.q] = len(uniq)
			uniq = append(uniq, o.q)
		}
	}
	refs := make([][]byte, len(uniq))
	errs := make([]error, len(uniq))
	var jobTime time.Duration
	for i, q := range uniq {
		if q.kind != kindJob {
			continue
		}
		// Jobs run on the workers themselves, as a sweep in process would.
		t0 := time.Now()
		res, es := sweepRef(nil, 0, jobDesigns, jobWorkloads, serveInstr, q.seed)
		jobTime = time.Since(t0)
		for _, e := range es {
			t.check(e)
		}
		refs[i], errs[i] = api.Encode(api.NewSweep(res))
	}
	parallel(len(uniq), func(i int) {
		q := uniq[i]
		switch q.kind {
		case kindCold:
			wl, _ := workload.ByName(q.workload)
			sys := system(serveInstr, q.seed)
			res, err := simulate(nil, 0, -1, q.design, wl.Name, streams(wl, sys), sim.MLPFor(wl), sys)
			if err == nil {
				err = checkResult(res)
			}
			if err == nil {
				refs[i], err = api.Encode(api.NewRun(res))
			}
			errs[i] = err
		case kindReplay:
			refs[i], errs[i] = replayRef(q.design, st.tr)
		}
	})
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	for _, o := range outs {
		if o.doc == nil || o.q.kind == kindWarm {
			continue
		}
		var err error
		if !bytes.Equal(o.doc, refs[idx[o.q]]) {
			err = fmt.Errorf("serve: %s %s/%s document differs from the in-process result", kindNames[o.q.kind], o.q.design, o.q.workload)
		}
		t.check(err)
	}
	return jobTime, nil
}

// replayRef replays the trace in process, as the server's replay does.
func replayRef(designName string, tr []byte) ([]byte, error) {
	sr, err := trace.NewStreamReader(bytes.NewReader(tr), config.Cores, 0)
	if err != nil {
		return nil, err
	}
	if err := sr.Prime(); err != nil {
		return nil, err
	}
	srcs := make([]sim.Source, config.Cores)
	for i := range srcs {
		srcs[i] = sr.Source(i)
	}
	res, err := simulate(nil, 0, -1, designName, "bench", srcs, replayMLP, system(serveInstr, 1))
	if err != nil {
		return nil, err
	}
	if err := sr.Err(); err != nil {
		return nil, err
	}
	if err := checkResult(res); err != nil {
		return nil, err
	}
	return api.Encode(api.NewRun(res))
}

// setupServe sets the workload up setupReps times, timing each, and
// keeps the last.
func setupServe(e *env) (*serveState, []time.Duration, error) {
	var setup []time.Duration
	var st *serveState
	for i := 0; i < setupReps; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, nil, err
			}
		}
		t0 := time.Now()
		var err error
		if st, err = serveSetup(e, i); err != nil {
			return nil, nil, err
		}
		setup = append(setup, time.Since(t0))
	}
	return st, setup, nil
}

func runServe(e *env) (map[string]float64, error) {
	st, setup, err := setupServe(e)
	if err != nil {
		return nil, err
	}
	rounds, err := measureRounds(e.seconds, 3, func(i int) (round, error) {
		r, _, _, err := st.serveRoundRun(e.t, nil, i)
		return r, err
	})
	if cerr := st.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if _, err := st.verify(e.t); err != nil {
		return nil, err
	}
	return endToEnd(setup, rounds), nil
}

// serveLayers is the serve part of the traced run: three untraced
// rounds give the per-class latencies and the /metrics deltas, one
// traced round gives the client spans and the tracing overhead.
func serveLayers(e *env, rec *recorder, m map[string]float64) error {
	st, _, err := setupServe(e)
	if err != nil {
		return err
	}
	defer st.close()
	const untracedRounds = 3
	var walls []float64
	var outs []outcome
	delta := map[string]float64{}
	for r := 0; r < untracedRounds; r++ {
		rd, o, d, err := st.serveRoundRun(e.t, nil, r)
		if err != nil {
			return err
		}
		walls = append(walls, rd.wall.Seconds())
		outs = append(outs, o...)
		for k, v := range d {
			delta[k] += v
		}
	}
	rd, _, _, err := st.serveRoundRun(e.t, rec, untracedRounds)
	if err != nil {
		return err
	}
	m["trace_overhead_share.serve"] = rd.wall.Seconds()/median(walls) - 1
	jobTime, err := st.verify(e.t)
	if err != nil {
		return err
	}

	lat := map[reqKind][]float64{}
	var clientUs float64
	for _, o := range outs {
		lat[o.q.kind] = append(lat[o.q.kind], millis(o.lat))
		if o.q.kind != kindJob {
			clientUs += float64(o.lat) / 1e3
		}
	}
	ratio := func(num, den string) float64 { return delta[num] / delta[den] }
	phase := func(p string) float64 {
		return ratio(`hybridmem_phase_duration_us_sum{phase="`+p+`"}`, `hybridmem_phase_duration_us_count{phase="`+p+`"}`)
	}
	hits, misses := delta["hybridmem_cache_hits_total"], delta["hybridmem_cache_misses_total"]
	m["store.mem_hit_ratio"] = hits / (hits + misses)
	m["store.disk_hits"] = delta["hybridmem_store_disk_hits_total"]
	m["serve.canonicalize_us"] = phase("canonicalize")
	m["serve.store_lookup_us"] = phase("store_lookup")
	m["serve.simulate_ms"] = phase("simulate") / 1e3
	m["cluster.dispatch_ms"] = phase("dispatch") / 1e3
	m["serve.server_share"] = (delta[`hybridmem_http_request_duration_us_sum{path="/v1/run"}`] +
		delta[`hybridmem_http_request_duration_us_sum{path="/v1/replay"}`]) / clientUs
	m["serve.sims"] = delta["hybridmem_sims_total"]
	m["serve.singleflight_shared"] = delta["hybridmem_singleflight_shared_total"]
	m["cluster.shards_dispatched"] = delta["hybridmem_cluster_shards_dispatched_total"]
	m["cluster.shards_stolen"] = delta["hybridmem_cluster_shards_stolen_total"]
	m["cluster.shards_retried"] = delta["hybridmem_cluster_shards_retried_total"]
	m["serve.cold_p50_ms"] = quantile(lat[kindCold], 0.5)
	m["serve.cold_p90_ms"] = quantile(lat[kindCold], 0.9)
	m["serve.cold_samples"] = float64(len(lat[kindCold]))
	m["serve.warm_p50_ms"] = quantile(lat[kindWarm], 0.5)
	m["serve.warm_p99_ms"] = quantile(lat[kindWarm], 0.99)
	m["serve.warm_samples"] = float64(len(lat[kindWarm]))
	m["serve.job_s"] = median(lat[kindJob]) / 1e3
	m["cluster.overhead_ms"] = median(lat[kindJob]) - millis(jobTime)
	m["serve.replay_mrec_per_s"] = float64(st.trRecs) / 1e6 / (median(lat[kindReplay]) / 1e3)
	return nil
}
