// Package sweep is the concurrent batch engine of the reproduction: it runs
// families of steady-state analyses — the paper's MPDE QPSS and envelope
// methods next to the shooting/transient/harmonic-balance baselines — over a
// parameter grid (tone spacing fd, drive amplitude, grid sizes N1×N2) on a
// bounded worker pool.
//
// Design points:
//
//   - Registry-driven dispatch: jobs name their analysis by its
//     internal/analysis registry key and run through analysis.Run; the
//     engine has no per-method code. Any registered sweepable analysis is a
//     valid Method.
//   - Deterministic results: Result.Jobs is ordered by job ID (method-major,
//     then grid order) no matter how the pool interleaves execution, and the
//     timing-free CSV/JSON serialisations are byte-identical between a
//     Workers=1 and a Workers=NumCPU run of the same Spec.
//   - Longest job first: targets and parameters are built before the pool
//     starts, and jobs start in descending analysis.Work estimate (ties in
//     ID order), so the longest job never starts last behind short ones.
//   - Per-job contexts: every job observes the parent context plus an
//     optional per-job timeout. Cancellation is cooperative — the per-job
//     context flows through analysis.Run down to the Newton iterations — so
//     a mid-sweep cancel returns promptly with partial results.
//   - Safe structure sharing: a Builder may return the same *circuit.Circuit
//     for every point. The engine finalises each circuit once, under a lock,
//     before handing it to an analysis; after finalisation the circuit and
//     its devices are read-only and every analysis allocates its own Eval
//     workspace, so concurrent jobs on a shared circuit are race-free. With
//     WarmStart, converged QPSS grids are additionally reused as initial
//     guesses within a (method, N1, N2) group (seeded only from the group's
//     first job, which keeps results independent of worker count).
package sweep

import (
	"errors"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/rf"
)

// Method names one of the analyses the engine can run at a grid point: an
// internal/analysis registry key whose descriptor is sweepable.
type Method string

// The analyses shipped sweepable; any analysis registered with sweep
// support is equally valid.
const (
	// QPSS is the paper's sheared-grid quasi-periodic steady state.
	QPSS Method = "qpss"
	// Envelope is slow-time MPDE envelope following.
	Envelope Method = "envelope"
	// Shooting is single-tone PSS across one difference period — the
	// paper's principal CPU-time baseline.
	Shooting Method = "shooting"
	// Transient is brute-force integration over TransientPeriods·Td.
	Transient Method = "transient"
	// HB is box-truncated two-tone harmonic balance.
	HB Method = "hb"
)

// Valid reports whether m names a registered sweepable analysis.
func (m Method) Valid() bool { return analysis.Sweepable(string(m)) }

// methodErr distinguishes a name the registry has never heard of from a
// registered analysis that cannot run as a grid job (ac/pac need stimulus
// configuration a sweep point does not carry).
func methodErr(m Method) error {
	if analysis.Registered(string(m)) {
		return errors.New("sweep: analysis " + string(m) + " cannot run as a sweep job")
	}
	return errors.New("sweep: unknown method " + string(m))
}

// Point is one vertex of the sweep grid (re-exported from the analysis
// registry; zero-valued fields mean "the builder's / analysis's default").
type Point = analysis.GridPoint

// Grid is a cartesian parameter grid. Empty axes contribute a single
// zero value (the builder/analysis default).
type Grid struct {
	Fd  []float64
	Amp []float64
	N1  []int
	N2  []int
}

// Points expands the grid in deterministic order: Fd-major, then Amp, then
// N1, then N2.
func (g Grid) Points() []Point {
	fds := g.Fd
	if len(fds) == 0 {
		fds = []float64{0}
	}
	amps := g.Amp
	if len(amps) == 0 {
		amps = []float64{0}
	}
	n1s := g.N1
	if len(n1s) == 0 {
		n1s = []int{0}
	}
	n2s := g.N2
	if len(n2s) == 0 {
		n2s = []int{0}
	}
	pts := make([]Point, 0, len(fds)*len(amps)*len(n1s)*len(n2s))
	for _, fd := range fds {
		for _, amp := range amps {
			for _, n1 := range n1s {
				for _, n2 := range n2s {
					pts = append(pts, Point{Fd: fd, Amp: amp, N1: n1, N2: n2})
				}
			}
		}
	}
	return pts
}

// Target is the circuit under test at one grid point, as produced by a
// Builder (re-exported from the analysis registry). The engine finalises
// Ckt itself; a Builder may return a fresh circuit per call or the same one
// for every point (see the package comment for why sharing is safe).
type Target = analysis.Target

// Builder constructs the circuit under test for one grid point.
type Builder func(Point) (*Target, error)

// Spec describes a sweep.
type Spec struct {
	// Name labels the sweep in exports.
	Name string
	// Methods lists the analyses to run at every grid point; default
	// {QPSS}. Jobs are ordered method-major.
	Methods []Method
	// Grid is expanded via Grid.Points(); Points, when non-nil, is used
	// verbatim instead.
	Grid   Grid
	Points []Point
	// JobList, when non-nil, bypasses the Methods×Grid cross product and
	// pins exactly one analysis per entry — the shape produced by a deck's
	// per-method .analysis directives, where QPSS and HB want different
	// grids. IDs follow list order after canonicalisation and dedup.
	JobList []JobSpec
	// Build constructs the target at each point (required).
	Build Builder
	// Subset, when non-nil, restricts Run to the listed job IDs of the full
	// expansion (the shape a dispatch worker executes: one shard of
	// Spec.Shards). IDs keep their full-expansion values, Result.Jobs holds
	// only the subset ordered by ID, and per-job tuning still sees the full
	// job count — so a shard's results are byte-identical to the same jobs'
	// slice of a whole-spec run, provided the subset keeps warm-start
	// groups intact (Shards guarantees it).
	Subset []int
	// Progress, when non-nil, receives job lifecycle events from the
	// worker pool while the sweep runs. It is called concurrently from
	// worker goroutines and must be safe for parallel use; it should
	// return quickly (hand off to a channel or buffer) so it never stalls
	// the pool.
	Progress func(ProgressEvent)
	// Workers bounds the pool; ≤ 0 means runtime.NumCPU().
	Workers int
	// JobTimeout, when > 0, cancels each job that runs longer.
	JobTimeout time.Duration
	// WarmStart reuses the first converged QPSS grid of each
	// (method, N1, N2) group as the initial guess for the group's
	// remaining jobs.
	WarmStart bool
	// DiffT1, DiffT2 select the finite-difference order of QPSS jobs
	// (zero values → first order, matching core.Options).
	DiffT1, DiffT2 core.DiffOrder
	// Linear selects the Newton linear solver for QPSS jobs: "direct"
	// (default) or "matfree".
	Linear string
	// SpectrumTop is the number of dominant mixes reported per job for
	// methods with a spectrum (default 5; negative disables).
	SpectrumTop int
	// TransientPeriods is the integration horizon in difference periods
	// for Transient jobs (default 3; the last period is measured).
	TransientPeriods float64
	// StepsPerFastPeriod sets the time resolution of Shooting and
	// Transient jobs, per period of the fastest retained harmonic K·F1
	// (default 10).
	StepsPerFastPeriod int
	// RelTol/AbsTol, when RelTol > 0, turn on adaptive accuracy control for
	// every job that supports it: LTE-driven envelope stepping, automatic
	// QPSS/HB grid sizing (Point.N1/N2 become the starting grid), and
	// transient resolution refinement. Fixed grids when zero. Outcomes are
	// reported per job (AcceptedSteps/RejectedSteps/Refinements/FinalN1/N2).
	RelTol float64
	AbsTol float64
}

// Status classifies a job outcome.
type Status string

// Job outcomes.
const (
	StatusOK       Status = "ok"
	StatusFailed   Status = "failed"
	StatusCanceled Status = "canceled"
	StatusTimeout  Status = "timeout"
)

// JobSpec pins one analysis at one grid point in Spec.JobList.
type JobSpec struct {
	Method Method `json:"method"`
	Point  Point  `json:"point"`
}

// ProgressKind names a job lifecycle event.
type ProgressKind string

// The progress events a running sweep emits.
const (
	// ProgressJobStart fires when a worker picks a job up.
	ProgressJobStart ProgressKind = "job_start"
	// ProgressJobDone fires when a job finishes (any status).
	ProgressJobDone ProgressKind = "job_done"
)

// ProgressEvent is one notification delivered to Spec.Progress.
type ProgressEvent struct {
	Kind ProgressKind
	Job  Job
	// Result is the finished job's outcome; nil for ProgressJobStart.
	Result *JobResult
	// Done counts finished jobs — including this event's job for
	// ProgressJobDone — and Total the jobs scheduled overall.
	Done, Total int
}

// Job is one scheduled analysis.
type Job struct {
	// ID is the job's index in Result.Jobs — deterministic for a given
	// Spec regardless of worker count.
	ID     int    `json:"id"`
	Method Method `json:"method"`
	Point  Point  `json:"point"`
}

// Line is one reported spectral mix (re-exported from analysis).
type Line = analysis.Line

// JobResult aggregates one job's outcome and measurements.
type JobResult struct {
	Job    Job    `json:"job"`
	Status Status `json:"status"`
	Err    string `json:"err,omitempty"`
	// Wall is the job's wall-clock time, excluded from the timing-free
	// serialisations so runs are byte-comparable.
	Wall time.Duration `json:"wall_ns"`
	// Assembly and Factor repeat Stats.AssemblyTime and Stats.FactorTime
	// for in-process readers; they are not serialised (the Stats fields
	// carry assembly_ns and factor_ns).
	Assembly time.Duration `json:"-"`
	Factor   time.Duration `json:"-"`
	// Stats is the analysis's solver-work report. Its counters are
	// deterministic, safe for the byte-stable exports; its two timers are
	// zeroed there like Wall.
	analysis.Stats
	// GainValid guards Gain: conversion gain referenced to Target.RFAmp.
	GainValid bool              `json:"gain_valid"`
	Gain      rf.ConversionGain `json:"gain,omitempty"`
	// Swing is max−min of the method's native output record: the t1-mean
	// baseband for QPSS/envelope, the raw waveform (carrier included) for
	// shooting/transient, and for HB the peak-to-peak of the
	// down-converted fundamental line alone — comparable in order of
	// magnitude across methods, not bit-for-bit.
	Swing float64 `json:"swing"`
	// Spectrum holds the dominant output mixes (methods with a spectrum).
	Spectrum []Line `json:"spectrum,omitempty"`
}

// Result is the aggregated outcome of a sweep. Jobs is ordered by Job.ID.
type Result struct {
	Name    string        `json:"name"`
	Workers int           `json:"workers"`
	Wall    time.Duration `json:"wall_ns"`
	Jobs    []JobResult   `json:"jobs"`
}

// Counts tallies job outcomes.
func (r *Result) Counts() (ok, failed, canceled int) {
	for i := range r.Jobs {
		switch r.Jobs[i].Status {
		case StatusOK:
			ok++
		case StatusFailed:
			failed++
		default:
			canceled++
		}
	}
	return ok, failed, canceled
}

// Errors collects the distinct failure messages (diagnostics for logs).
func (r *Result) Errors() []string {
	seen := map[string]bool{}
	var out []string
	for i := range r.Jobs {
		if e := r.Jobs[i].Err; e != "" && !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	return out
}

// usesGridAxes reports whether a method reads Point.N1/N2, per its registry
// descriptor (shooting and transient derive their time resolution from the
// shear alone).
func usesGridAxes(m Method) bool {
	d, ok := analysis.Lookup(string(m))
	return ok && d.UsesGridAxes
}

// Jobs expands the spec into its deterministic job list, the same one Run
// executes: IDs are assigned in expansion order regardless of worker
// scheduling. Grid axes a method ignores are canonicalised to zero and the
// resulting duplicate jobs dropped, so an N1×N2 grid does not re-run the
// (expensive) integration methods once per grid shape. Callers that need a
// scheduling-independent identity for a sweep — e.g. a server deriving a
// result-cache key — canonicalise through this list rather than the raw
// Grid/Methods/JobList fields.
func (s *Spec) Jobs() ([]Job, error) {
	if s.JobList != nil {
		var jobs []Job
		seen := map[JobSpec]bool{}
		for _, js := range s.JobList {
			if !js.Method.Valid() {
				return nil, methodErr(js.Method)
			}
			if !usesGridAxes(js.Method) {
				js.Point.N1, js.Point.N2 = 0, 0
			}
			if seen[js] {
				continue
			}
			seen[js] = true
			jobs = append(jobs, Job{ID: len(jobs), Method: js.Method, Point: js.Point})
		}
		if len(jobs) == 0 {
			return nil, errors.New("sweep: empty job list")
		}
		return jobs, nil
	}
	methods := s.Methods
	if len(methods) == 0 {
		methods = []Method{QPSS}
	}
	for _, m := range methods {
		if !m.Valid() {
			return nil, methodErr(m)
		}
	}
	pts := s.Points
	if pts == nil {
		pts = s.Grid.Points()
	}
	if len(pts) == 0 {
		return nil, errors.New("sweep: empty point set")
	}
	var jobs []Job
	for _, m := range methods {
		seen := map[Point]bool{}
		for _, p := range pts {
			if !usesGridAxes(m) {
				p.N1, p.N2 = 0, 0
			}
			if seen[p] {
				continue
			}
			seen[p] = true
			jobs = append(jobs, Job{ID: len(jobs), Method: m, Point: p})
		}
	}
	return jobs, nil
}
