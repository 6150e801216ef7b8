package server

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/dispatch"
	"repro/internal/netlist"
	"repro/internal/solver"
	"repro/internal/sweep"
)

// deckMethods lists a deck's directive methods for diagnostics.
func deckMethods(deck *netlist.Deck) string {
	var names []string
	for _, a := range deck.Analyses {
		names = append(names, a.Method)
	}
	return strings.Join(names, ", ")
}

// Request is the JSON body of POST /v1/jobs and POST /v1/simulate. Only
// Deck is required: analyses default to the deck's .analysis directives
// (and to a single default-grid QPSS run when the deck carries none), the
// probe to the deck's last declared node. A request whose body is not JSON
// is treated as a raw deck with everything defaulted.
type Request struct {
	// Deck is the SPICE-flavoured netlist (see internal/netlist).
	Deck string `json:"deck"`
	// Name labels the result; defaults to the deck title.
	Name string `json:"name,omitempty"`
	// Analyses pins one analysis per entry (per-method grids). When set it
	// overrides the deck's directives.
	Analyses []AnalysisRequest `json:"analyses,omitempty"`
	// Methods and Grid select the cross-product form instead: every method
	// at every N1×N2 vertex. Ignored when Analyses is set.
	Methods []string     `json:"methods,omitempty"`
	Grid    *GridRequest `json:"grid,omitempty"`
	// Probe names the output node (default: last declared). ProbeMinus
	// selects differential probing.
	Probe      string `json:"probe,omitempty"`
	ProbeMinus string `json:"probe_minus,omitempty"`
	// RFAmp references conversion-gain measurement; 0 disables gain.
	RFAmp float64 `json:"rf_amp,omitempty"`
	// WarmStart seeds same-grid jobs from the first converged solution.
	WarmStart bool `json:"warm_start,omitempty"`
	// SpectrumTop bounds reported mixes per QPSS job (0 → engine default).
	SpectrumTop int `json:"spectrum_top,omitempty"`
	// TransientPeriods and StepsPerFastPeriod tune the integration
	// baselines (0 → engine defaults).
	TransientPeriods   float64 `json:"transient_periods,omitempty"`
	StepsPerFastPeriod int     `json:"steps_per_fast_period,omitempty"`
	// RelTol/AbsTol (RelTol > 0) turn on adaptive accuracy control for
	// every analysis in the request: LTE-driven envelope stepping and
	// automatic QPSS/HB grid sizing / transient refinement (the requested
	// grids become starting grids). Deck directives carrying
	// reltol/abstol/accuracy apply sweep-wide like the other tuning
	// directives (the last directive to set one wins); an explicit request
	// field beats them all.
	RelTol float64 `json:"reltol,omitempty"`
	AbsTol float64 `json:"abstol,omitempty"`
	// Linear selects the Newton linear solver for QPSS jobs: "direct"
	// (default) or "matfree". A deck directive carrying
	// linear= applies sweep-wide; this explicit field beats it.
	Linear string `json:"linear,omitempty"`
	// JobTimeoutMS bounds each analysis job. Timeouts make outcomes
	// wall-clock dependent, so a request with a timeout bypasses the
	// result cache.
	JobTimeoutMS int `json:"job_timeout_ms,omitempty"`
	// NoCache skips the result cache for this request (it still
	// singleflights against identical in-flight runs).
	NoCache bool `json:"no_cache,omitempty"`
	// Trace records a span tree and per-iteration Newton convergence
	// records for this job, served by GET /v1/jobs/{id}/trace. Tracing
	// never changes the result bytes, so the canonical cache key ignores
	// it; a traced submit does bypass the cache lookup (the solve must
	// actually run) and never coalesces onto an untraced in-flight run.
	Trace bool `json:"trace,omitempty"`
}

// AnalysisRequest selects one analysis at one grid shape.
type AnalysisRequest struct {
	Method string `json:"method"`
	N1     int    `json:"n1,omitempty"`
	N2     int    `json:"n2,omitempty"`
}

// GridRequest is the cross-product grid of the request form.
type GridRequest struct {
	N1 []int `json:"n1,omitempty"`
	N2 []int `json:"n2,omitempty"`
}

// Admission-time resource bounds. A QPSS/HB grid costs
// O(N1·N2·unknowns) memory with a sparse Jacobian on top, so the caps keep
// the worst admissible job in the hundreds-of-megabytes range instead of
// letting one hostile request OOM-kill the service.
const (
	maxJobsPerRequest = 256
	maxGridAxis       = 4096
	maxGridPoints     = 65536
)

// runSpec is a fully resolved, validated request: the sweep spec ready to
// run plus the content-addressed identity the cache and singleflight share.
type runSpec struct {
	name string
	// key is the hex SHA-256 of the canonical wire encoding; empty when the
	// request is uncacheable (job timeout, no_cache).
	key string
	// flightKey identifies the request for singleflight even when
	// uncacheable; equals key plus the uncacheable knobs.
	flightKey string
	// wire is the request's canonical wire form, the unit the dispatch
	// plane ships to workers. Its encoding is what key hashes, so cache and
	// singleflight identity is the same on every node that re-derives it.
	wire *dispatch.RequestWire
	spec sweep.Spec
	// njobs is the job-expansion size.
	njobs int
	// trace requests span/convergence recording (Request.Trace).
	trace bool
}

// badRequestError marks client mistakes (HTTP 400) apart from server
// failures.
type badRequestError struct{ msg string }

func (e *badRequestError) Error() string { return e.msg }

func badRequestf(format string, args ...any) error {
	return &badRequestError{msg: fmt.Sprintf(format, args...)}
}

// analysisToJobSpec maps one resolved analysis onto the engine's job form.
func analysisToJobSpec(method string, n1, n2 int) sweep.JobSpec {
	return sweep.JobSpec{
		Method: sweep.Method(strings.ToLower(strings.TrimSpace(method))),
		Point:  sweep.Point{N1: n1, N2: n2},
	}
}

// resolveRequest validates a request against its deck and produces the
// run-ready spec plus its content-addressed identity. Everything on the
// path from request fields to the wire key must be deterministic — a
// scheduling- or iteration-order dependence here would split the cache
// identity of identical requests across nodes.
//
//mpde:canonical
func resolveRequest(req *Request, sweepWorkers int) (*runSpec, error) {
	if strings.TrimSpace(req.Deck) == "" {
		return nil, badRequestf("deck is required")
	}
	deck, err := netlist.Parse(strings.NewReader(req.Deck))
	if err != nil {
		return nil, badRequestf("deck: %v", err)
	}
	sh, err := deck.Shear()
	if err != nil {
		return nil, badRequestf("%v", err)
	}
	if deck.Ckt.NumNodes() < 1 {
		return nil, badRequestf("deck has no non-ground nodes to probe")
	}

	outP := deck.Ckt.NumNodes() - 1
	if req.Probe != "" {
		if outP, err = deck.Ckt.NodeIndex(strings.TrimSpace(req.Probe)); err != nil {
			return nil, badRequestf("probe: %v", err)
		}
	}
	outM := -1
	if req.ProbeMinus != "" {
		if outM, err = deck.Ckt.NodeIndex(strings.TrimSpace(req.ProbeMinus)); err != nil {
			return nil, badRequestf("probe_minus: %v", err)
		}
	}

	if _, err := solver.ParseLinearSolver(req.Linear); err != nil {
		return nil, badRequestf("%v", err)
	}
	spec := sweep.Spec{
		Workers:            sweepWorkers,
		JobTimeout:         time.Duration(req.JobTimeoutMS) * time.Millisecond,
		WarmStart:          req.WarmStart,
		SpectrumTop:        req.SpectrumTop,
		TransientPeriods:   req.TransientPeriods,
		StepsPerFastPeriod: req.StepsPerFastPeriod,
		RelTol:             req.RelTol,
		AbsTol:             req.AbsTol,
		Linear:             req.Linear,
	}

	switch {
	case len(req.Analyses) > 0:
		for _, a := range req.Analyses {
			spec.JobList = append(spec.JobList, analysisToJobSpec(a.Method, a.N1, a.N2))
		}
	case len(req.Methods) > 0 || req.Grid != nil:
		for _, m := range req.Methods {
			spec.Methods = append(spec.Methods, sweep.Method(strings.ToLower(strings.TrimSpace(m))))
		}
		if req.Grid != nil {
			spec.Grid = sweep.Grid{N1: req.Grid.N1, N2: req.Grid.N2}
		}
	case len(deck.Analyses) > 0:
		for _, a := range deck.Analyses {
			js := analysisToJobSpec(a.Method, a.Int("n1", 0), a.Int("n2", 0))
			// The directive vocabulary is the whole analysis registry, but
			// this service multiplexes decks onto the sweep engine — skip
			// registered-but-unsweepable directives (dc/ac/pac, which need
			// stimulus configuration a sweep job does not carry) so a deck
			// that also drives the CLI still runs its sweepable analyses
			// here. Unknown names still fail the request via Jobs() below.
			if analysis.Registered(string(js.Method)) && !js.Method.Valid() {
				continue
			}
			spec.JobList = append(spec.JobList, js)
			// Directive-level tuning params apply sweep-wide, mirroring
			// the engine's Spec granularity: the last directive to set one
			// wins, and an explicit request field beats them all.
			if v := a.Float("periods", 0); v > 0 && req.TransientPeriods == 0 {
				spec.TransientPeriods = v
			}
			if v := a.Int("steps", 0); v > 0 && req.StepsPerFastPeriod == 0 {
				spec.StepsPerFastPeriod = v
			}
			if v := a.Int("top", 0); v > 0 && req.SpectrumTop == 0 {
				spec.SpectrumTop = v
			}
			rt := a.Float("reltol", 0)
			if rt <= 0 {
				// accuracy=d is the 10⁻ᵈ shorthand for reltol.
				if d := a.Float("accuracy", 0); d > 0 {
					rt = math.Pow(10, -d)
				}
			}
			if rt > 0 && req.RelTol == 0 {
				spec.RelTol = rt
			}
			if v := a.Float("abstol", 0); v > 0 && req.AbsTol == 0 {
				spec.AbsTol = v
			}
			if v := a.Str["linear"]; v != "" && req.Linear == "" {
				if _, err := solver.ParseLinearSolver(v); err != nil {
					return nil, badRequestf("%v", err)
				}
				spec.Linear = v
			}
		}
		if len(spec.JobList) == 0 {
			return nil, badRequestf("deck's .analysis directives (%s) cannot run as sweep jobs; submit a sweepable analysis (e.g. qpss)", deckMethods(deck))
		}
	default:
		spec.JobList = []sweep.JobSpec{{Method: sweep.QPSS}}
	}

	jobs, err := spec.Jobs()
	if err != nil {
		return nil, badRequestf("%v", err)
	}
	// Admission-time resource caps: decks arrive from untrusted clients,
	// and a single oversized grid would be an OOM kill, not a recoverable
	// panic. (Shooting/transient horizons are separately capped inside the
	// engine.)
	if len(jobs) > maxJobsPerRequest {
		return nil, badRequestf("request expands to %d analyses (max %d)", len(jobs), maxJobsPerRequest)
	}
	for _, j := range jobs {
		n1, n2 := j.Point.N1, j.Point.N2
		if n1 < 0 || n2 < 0 || n1 > maxGridAxis || n2 > maxGridAxis || n1*n2 > maxGridPoints {
			return nil, badRequestf("analysis %s grid %dx%d exceeds the per-job bound (axes ≤ %d, points ≤ %d)",
				j.Method, n1, n2, maxGridAxis, maxGridPoints)
		}
	}

	name := req.Name
	if name == "" {
		name = deck.Title
	}
	if name == "" {
		name = "deck"
	}
	spec.Name = name

	// One parsed deck serves every job: the engine finalises it once and
	// analyses only read it afterwards.
	tgt := &sweep.Target{Ckt: deck.Ckt, Shear: sh, OutP: outP, OutM: outM, RFAmp: req.RFAmp}
	spec.Build = func(sweep.Point) (*sweep.Target, error) { return tgt, nil }

	// The canonical wire form is the request's identity everywhere: its
	// SHA-256 is the cache/singleflight key here, and the same bytes are
	// what shards carry to workers — so a worker resolving the wire form
	// derives the identical key, which is what makes the cache and
	// singleflight identity span processes.
	wire := &dispatch.RequestWire{
		V:                dispatch.WireVersion,
		Deck:             netlist.Canonical(req.Deck),
		Name:             name,
		Jobs:             jobs,
		OutP:             outP,
		OutM:             outM,
		RFAmp:            req.RFAmp,
		WarmStart:        req.WarmStart,
		SpectrumTop:      spec.SpectrumTop,
		TransientPeriods: spec.TransientPeriods,
		StepsPerFast:     spec.StepsPerFastPeriod,
		RelTol:           spec.RelTol,
		AbsTol:           spec.AbsTol,
		Linear:           spec.Linear,
		Newton:           dispatch.NewtonFromOptions(spec.Newton),
		JobTimeoutMS:     req.JobTimeoutMS,
	}
	key, err := wire.Key()
	if err != nil {
		return nil, err
	}

	rs := &runSpec{name: name, wire: wire, spec: spec, njobs: len(jobs), trace: req.Trace}
	// NoCache is part of the flight identity: a cacheable submit must not
	// coalesce onto an uncacheable run, or its result would silently never
	// enter the cache. Trace likewise: a traced submit joining an untraced
	// run would get no trace back.
	rs.flightKey = fmt.Sprintf("%s/timeout=%d/nocache=%v/trace=%v", key, req.JobTimeoutMS, req.NoCache, req.Trace)
	if req.JobTimeoutMS == 0 && !req.NoCache {
		rs.key = key
	}
	return rs, nil
}
