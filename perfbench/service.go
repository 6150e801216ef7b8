package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/netlist"
	"repro/internal/server"
	"repro/internal/sweep"
)

// serviceDeck is the balanced-mixer deck of examples/service. A cold
// request replaces its RF amplitude (rfAmpField) with a seeded one.
//
//go:embed service_deck.cir
var serviceDeck string

const rfAmpField = "SIN 1.8 0.05 19.9meg"

// serviceGrids are the four QPSS analyses of every cold request; four
// warm-start groups let the coordinator shard them over both workers.
var serviceGrids = [][2]int{{24, 16}, {28, 16}, {28, 20}, {32, 20}}

const (
	serviceClients = 2
	serviceWorkers = 2
	// coldEvery is the request-mix period: one cold request in every block
	// of coldEvery, at a seeded position.
	coldEvery = 4
)

// serviceBody is the JSON body of a submit whose deck carries RF
// amplitude amp.
func serviceBody(amp float64, trace bool) []byte {
	var analyses []map[string]any
	for _, g := range serviceGrids {
		analyses = append(analyses, map[string]any{"method": "qpss", "n1": g[0], "n2": g[1]})
	}
	body := map[string]any{
		"deck":        strings.ReplaceAll(serviceDeck, rfAmpField, fmt.Sprintf("SIN 1.8 %.9f 19.9meg", amp)),
		"probe":       "outp",
		"probe_minus": "outm",
		"rf_amp":      amp,
		"analyses":    analyses,
	}
	if trace {
		body["trace"] = true
	}
	raw, err := json.Marshal(body)
	if err != nil {
		panic(err)
	}
	return raw
}

// serviceEnv is an in-process server with its coordinator and two attached
// dispatch workers on loopback.
type serviceEnv struct {
	hs      *http.Server
	srv     *server.Server
	base    string
	load    *http.Client // the load generator's; at most serviceClients connections
	control *http.Client // metrics and trace reads
	stop    context.CancelFunc
	workers sync.WaitGroup
	seed    int64
	warm    []byte // the warm-up body and its response
	warmRes []byte

	// The /metrics snapshots taken around run.
	m0, m1 map[string]float64
}

func setupService(_ string, seed int64) (env, error) {
	if strings.Count(serviceDeck, rfAmpField) != 2 {
		return nil, errors.New("service deck lost its RF amplitude field")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	quiet := func(string, ...any) {}
	e := &serviceEnv{
		srv:     server.New(server.Options{MaxConcurrent: serviceClients, SweepWorkers: 1, Logf: quiet}),
		base:    "http://" + ln.Addr().String(),
		load:    &http.Client{Transport: &http.Transport{MaxConnsPerHost: serviceClients, MaxIdleConnsPerHost: serviceClients}},
		control: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		seed:    seed,
	}
	e.hs = &http.Server{Handler: e.srv.Handler()}
	go e.hs.Serve(ln)
	ctx, stop := context.WithCancel(context.Background())
	e.stop = stop
	for i := 0; i < serviceWorkers; i++ {
		e.workers.Add(1)
		go func(id string) {
			defer e.workers.Done()
			dispatch.RunWorker(ctx, dispatch.WorkerOptions{Coordinator: e.base, ID: id, SweepWorkers: 1, Logf: quiet})
		}(fmt.Sprintf("bench-worker-%d", i))
	}
	if err := e.waitWorkers(10 * time.Second); err != nil {
		e.close()
		return nil, err
	}
	// Warm-up: one cold request and one hit on it.
	e.warm = serviceBody(0.05, false)
	res, err := e.submit(e.warm, "miss", nil)
	if err == nil {
		e.warmRes = res.body
		_, err = e.submit(e.warm, "hit", e.warmRes)
	}
	if err != nil {
		e.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return e, nil
}

func (e *serviceEnv) waitWorkers(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if m, err := e.metrics(); err == nil && m["mpde_dispatch_workers"] >= serviceWorkers {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("coordinator never saw %d workers", serviceWorkers)
}

func (e *serviceEnv) close() {
	e.stop()
	e.workers.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	e.srv.Shutdown(ctx)
	e.hs.Shutdown(ctx)
	e.load.CloseIdleConnections()
	e.control.CloseIdleConnections()
}

func (e *serviceEnv) metrics() (map[string]float64, error) {
	resp, err := e.control.Get(e.base + "/metrics?format=json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := map[string]float64{}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

type response struct {
	body  []byte
	jobID string
}

// submit posts body to /v1/simulate and checks the answer: status 200,
// the expected X-Cache value, and for a hit the bytes of want; a miss must
// report every analysis ok.
func (e *serviceEnv) submit(body []byte, cache string, want []byte) (response, error) {
	resp, err := e.load.Post(e.base+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		return response{}, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return response{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return response{}, fmt.Errorf("status %d: %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("X-Cache"); got != cache {
		return response{}, fmt.Errorf("X-Cache %q, want %q", got, cache)
	}
	if want != nil && !bytes.Equal(raw, want) {
		return response{}, errors.New("cache hit body differs from its cold response")
	}
	if want == nil {
		var res sweep.Result
		if err := json.Unmarshal(raw, &res); err != nil {
			return response{}, err
		}
		if ok, _, _ := res.Counts(); ok != len(serviceGrids) || len(res.Jobs) != len(serviceGrids) {
			return response{}, fmt.Errorf("%d of %d analyses ok: %v", ok, len(res.Jobs), res.Errors())
		}
	}
	return response{body: raw, jobID: resp.Header.Get("X-Job-ID")}, nil
}

// trace reads a finished traced job's span forest.
func (e *serviceEnv) trace(id string) (server.TraceResponse, error) {
	var tr server.TraceResponse
	resp, err := e.control.Get(e.base + "/v1/jobs/" + id + "/trace")
	if err != nil {
		return tr, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return tr, fmt.Errorf("trace %s: status %d", id, resp.StatusCode)
	}
	return tr, json.NewDecoder(resp.Body).Decode(&tr)
}

// run drives serviceClients closed-loop clients. Each sends one cold
// request in every block of coldEvery at a seeded position, with a fresh
// seeded RF amplitude from its own range; the others resubmit one of its
// bodies answered at least one request earlier, so the result is surely
// cached. With traced set, every other cold request carries trace:true.
func (e *serviceEnv) run(deadline time.Time, traced bool) []sample {
	var err error
	if e.m0, err = e.metrics(); err != nil {
		return []sample{{kind: "metrics", err: err}}
	}
	out := make([][]sample, serviceClients)
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out[c] = e.client(c, deadline, traced)
		}(c)
	}
	wg.Wait()
	if e.m1, err = e.metrics(); err != nil {
		return []sample{{kind: "metrics", err: err}}
	}
	var all []sample
	for _, s := range out {
		all = append(all, s...)
	}
	return all
}

func (e *serviceEnv) client(c int, deadline time.Time, traced bool) []sample {
	rng := rand.New(rand.NewSource(e.seed*1000 + int64(c)))
	pool := [][]byte{e.warm}
	answers := map[string][]byte{string(e.warm): e.warmRes}
	used := map[float64]bool{}
	var pending []byte
	var out []sample
	coldAt, colds := 0, 0
	kept := c != 0 // client 0 keeps its first traced request's spans
	for i := 0; i < coldEvery*minOps(traced) || time.Now().Before(deadline); i++ {
		calibrate()
		ref := refNow()
		block := c*1_000_000 + i/coldEvery + 1
		if i%coldEvery == 0 {
			coldAt = rng.Intn(coldEvery)
		}
		if i%coldEvery != coldAt {
			body := pool[rng.Intn(len(pool))]
			t0 := time.Now()
			_, err := e.submit(body, "hit", answers[string(body)])
			out = append(out, sample{kind: "hit", wall: time.Since(t0), err: err, ref: ref, block: block})
		} else {
			// Each client draws from its own amplitude range.
			amp := 0.02 + 0.03*float64(c) + 0.03*rng.Float64()
			for used[amp] {
				amp = 0.02 + 0.03*float64(c) + 0.03*rng.Float64()
			}
			used[amp] = true
			body := serviceBody(amp, false)
			s := sample{kind: "cold", traced: traced && colds%2 == 0, ref: ref, block: block}
			colds++
			t0 := time.Now()
			res, err := e.submit(serviceBody(amp, s.traced), "miss", nil)
			s.wall, s.err = time.Since(t0), err
			if err == nil && s.traced {
				s.err = e.chargeTrace(&s, res.jobID, !kept)
				kept = true
			}
			out = append(out, s)
			if err == nil {
				answers[string(body)] = res.body
				if pending != nil {
					pool = append(pool, pending)
				}
				pending = body
				continue
			}
		}
		if pending != nil {
			pool = append(pool, pending)
			pending = nil
		}
	}
	return out
}

// chargeTrace reads a traced cold request's spans into its budget.
func (e *serviceEnv) chargeTrace(s *sample, id string, keep bool) error {
	tr, err := e.trace(id)
	if err != nil {
		return err
	}
	s.dropped = tr.DroppedSpans
	s.budget = budget{}
	s.budget.chargeTree(tr.Spans)
	if keep {
		s.spans = flatten(tr.Spans)
	}
	return nil
}

// counterMetrics names the /metrics total behind each per-layer counter.
var counterMetrics = map[string]string{
	"la.factorizations":       "mpde_solver_factorizations_total",
	"la.refactorizations":     "mpde_solver_refactorizations_total",
	"la.batch_reuse":          "mpde_solver_batch_reuse_total",
	"solver.newton_iters":     "mpde_solver_newton_iters_total",
	"solver.halvings":         "mpde_solver_damping_halvings_total",
	"solver.linear_iters":     "mpde_solver_linear_iters_total",
	"solver.operator_applies": "mpde_solver_operator_applies_total",
	"solver.precond_builds":   "mpde_solver_precond_builds_total",
	"solver.gmres_fallbacks":  "mpde_solver_gmres_fallbacks_total",
	"core.pattern_reuse":      "mpde_solver_pattern_reuse_total",
	"core.refinements":        "mpde_solver_grid_refinements_total",
}

// serviceProbes times the request path's layers outside the server: deck
// parse and canonicalisation, and the wire request's encode plus key and
// decode plus spec build.
type serviceProbes struct {
	parse, canonical, encode, decode float64
	n                                int
}

func measureServiceProbes() (serviceProbes, error) {
	var p serviceProbes
	deck, err := netlist.ParseString(serviceDeck)
	if err != nil {
		return p, err
	}
	var jobs []sweep.Job
	for i, g := range serviceGrids {
		jobs = append(jobs, sweep.Job{ID: i, Method: sweep.QPSS, Point: sweep.Point{N1: g[0], N2: g[1]}})
	}
	outP, _ := deck.Ckt.NodeIndex("outp")
	outM, _ := deck.Ckt.NodeIndex("outm")
	wire := &dispatch.RequestWire{V: dispatch.WireVersion, Deck: netlist.Canonical(serviceDeck),
		Name: deck.Title, Jobs: jobs, OutP: outP, OutM: outM, RFAmp: 0.05}
	raw, err := wire.Encode()
	if err != nil {
		return p, err
	}
	p.parse, p.n = repeatMedian(50, 100*time.Millisecond, func() { netlist.ParseString(serviceDeck) })
	p.canonical, _ = repeatMedian(50, 100*time.Millisecond, func() { netlist.Canonical(serviceDeck) })
	p.encode, _ = repeatMedian(50, 100*time.Millisecond, func() { wire.Key() })
	p.decode, _ = repeatMedian(50, 100*time.Millisecond, func() {
		if w, err := dispatch.DecodeRequest(raw); err == nil {
			w.BuildSpec(1)
		}
	})
	return p, nil
}

func (e *serviceEnv) report(r *report, samples []sample, traced bool) {
	// Scaled to the nominal host, except rawHits, which feeds the budget.
	var hits, rawHits, colds []float64
	for _, s := range samples {
		if s.err != nil || s.traced {
			continue
		}
		switch s.kind {
		case "hit":
			hits = append(hits, s.norm())
			rawHits = append(rawHits, s.wall.Seconds())
		case "cold":
			colds = append(colds, s.norm())
		}
	}
	delta := func(name string) float64 { return e.m1[name] - e.m0[name] }
	if !traced {
		r.add("cold_submit_p50_s", median(colds), "s", len(colds))
		r.add("hit_submit_p50_s", median(hits), "s", len(hits))
		if len(hits) >= 100 {
			r.add("hit_submit_p90_s", quantile(hits, 0.9), "s", len(hits))
		}
		if m, ok := r.find("ops_per_s"); ok {
			r.add("service_req_per_s", m.Value, m.Unit, m.N)
		}
		return
	}

	p, err := measureServiceProbes()
	if err != nil {
		panic(fmt.Sprintf("perfbench: service probes: %v", err))
	}
	r.add("netlist.parse_us", p.parse*1e6, "us", p.n)
	r.add("netlist.canonical_us", p.canonical*1e6, "us", p.n)
	r.add("dispatch.encode_us", p.encode*1e6, "us", p.n)
	r.add("dispatch.decode_us", p.decode*1e6, "us", p.n)
	hitOverhead := median(rawHits) - p.parse - p.canonical - p.encode
	r.add("server.hit_overhead_s", hitOverhead, "s", len(rawHits))

	// The solver counters and times arrive as /metrics totals over every
	// cold request of the run, traced or not; each traced request gets the
	// per-request mean.
	nCold := 0.0
	for _, s := range samples {
		if s.kind == "cold" {
			nCold++
		}
	}
	perCold := func(name string) float64 { return delta(name) / max(nCold, 1) }
	st := mpdeStats{
		assembly: time.Duration(perCold("mpde_solver_assembly_seconds_total") * 1e9),
		factor:   time.Duration(perCold("mpde_solver_factor_seconds_total") * 1e9),
	}
	var execute, coldOverhead, n float64
	for i := range samples {
		s := &samples[i]
		if !s.traced || s.err != nil {
			continue
		}
		s.budget.splitNewton(st)
		s.budget["netlist.self_s"] += p.parse + p.canonical
		s.budget["dispatch.codec_s"] += p.encode
		s.budget["server.http_overhead_s"] += hitOverhead
		s.counts = counters{}
		for name, metric := range counterMetrics {
			s.counts[name] = perCold(metric)
		}
		execute += s.budget[auxExecute]
		coldOverhead += s.wall.Seconds() - s.budget[auxExecute]
		n++
	}
	r.add("dispatch.execute_s", execute/max(n, 1), "s", int(n))
	r.add("server.cold_overhead_s", coldOverhead/max(n, 1), "s", int(n))
	hitsTotal, misses := delta("mpde_cache_hits_total"), delta("mpde_cache_misses_total")
	r.add("server.cache_hit_ratio", hitsTotal/max(hitsTotal+misses, 1), "frac", int(hitsTotal+misses))
	r.add("server.singleflight_shared", delta("mpde_singleflight_shared_total"), "count", 1)
	r.add("dispatch.shards", delta("mpde_dispatch_shards_total"), "count", 1)
	r.add("dispatch.shard_cache_hits", delta("mpde_dispatch_shard_cache_hits_total"), "count", 1)
	r.add("dispatch.shard_retries", delta("mpde_shard_retries_total"), "count", 1)
	r.add("dispatch.lease_expirations", delta("mpde_lease_expirations_total"), "count", 1)

	deck, err := netlist.ParseString(serviceDeck)
	if err != nil {
		panic(fmt.Sprintf("perfbench: service deck: %v", err))
	}
	sh, err := deck.Shear()
	if err != nil {
		panic(fmt.Sprintf("perfbench: service deck: %v", err))
	}
	res, err := analysis.Run(context.Background(), analysis.Request{Method: "qpss", Circuit: deck.Ckt,
		Params: analysis.QPSSParams{N1: serviceGrids[0][0], N2: serviceGrids[0][1], Shear: sh}})
	if err != nil {
		panic(fmt.Sprintf("perfbench: probe solve: %v", err))
	}
	outP, _ := deck.Ckt.NodeIndex("outp")
	outM, _ := deck.Ckt.NodeIndex("outm")
	layerProbes(r, res.Raw().(*core.Solution), outP, outM)
}
