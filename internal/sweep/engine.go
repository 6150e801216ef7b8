package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/circuit"
	"repro/internal/obs"
	"repro/internal/solver"
)

// finalizeMu serialises Circuit.Finalize across jobs: a Builder may hand the
// same circuit to concurrent jobs, and finalisation is the one mutating step
// left. After it, the circuit is read-only and safe to share.
var finalizeMu sync.Mutex

func finalize(ckt *circuit.Circuit) {
	finalizeMu.Lock()
	ckt.Finalize()
	finalizeMu.Unlock()
}

// groupKey identifies a warm-start group: jobs of one method on one grid
// shape share converged solutions as initial guesses.
type groupKey struct {
	method Method
	n1, n2 int
}

// Run executes the sweep described by spec under ctx. It always returns the
// aggregated result — on cancellation a partial one, with unstarted and
// interrupted jobs marked StatusCanceled — together with ctx.Err().
// Result.Jobs is ordered by Job.ID regardless of worker scheduling.
//
//mpde:deterministic-parallel
func Run(ctx context.Context, spec Spec) (*Result, error) {
	if spec.Build == nil {
		return nil, errors.New("sweep: Spec.Build is required")
	}
	jobs, err := spec.Jobs()
	if err != nil {
		return nil, err
	}
	// run is the set of jobs this invocation actually executes — the whole
	// expansion, or the Subset shard of it. Job IDs, seeds, and tuning all
	// keep full-expansion semantics so shard results match the
	// single-process run byte for byte.
	run := jobs
	if spec.Subset != nil {
		run, err = subsetJobs(jobs, spec.Subset)
		if err != nil {
			return nil, err
		}
	}
	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(run) {
		workers = len(run)
	}

	ctx, span := obs.Start(ctx, "sweep.run")
	if span != nil {
		span.SetStr("name", spec.Name)
		span.SetInt("jobs", int64(len(run)))
		span.SetInt("workers", int64(workers))
		defer span.End()
	}

	all := make([]JobResult, len(jobs))
	for i := range all {
		all[i] = JobResult{Job: jobs[i], Status: StatusCanceled, Err: "sweep canceled before job started"}
	}
	res := &Result{Name: spec.Name, Workers: workers}

	// Warm-start staging: the first job of every seedable (method, N1, N2)
	// group runs in stage one; the group's remaining jobs run in stage two
	// with that leader's converged grid as initial guess. Seeding only
	// from the leader (never from "whichever job finished last") keeps
	// every job's inputs — and therefore the aggregated results —
	// independent of the worker count. Jobs of non-seedable methods never
	// consume seeds, so they join stage one rather than idle behind the
	// leaders' barrier.
	var stage1, stage2 []int
	if spec.WarmStart {
		leaders := map[groupKey]bool{}
		for _, j := range run {
			k := groupKey{j.Method, j.Point.N1, j.Point.N2}
			switch {
			case !seedable(j.Method):
				stage1 = append(stage1, j.ID)
			case !leaders[k]:
				leaders[k] = true
				stage1 = append(stage1, j.ID)
			default:
				stage2 = append(stage2, j.ID)
			}
		}
	} else {
		stage1 = make([]int, len(run))
		for i, j := range run {
			stage1[i] = j.ID
		}
	}

	var seedMu sync.Mutex
	seeds := map[groupKey][]float64{}
	seedFor := func(j Job) []float64 {
		if !spec.WarmStart || !seedable(j.Method) {
			return nil
		}
		seedMu.Lock()
		defer seedMu.Unlock()
		return seeds[groupKey{j.Method, j.Point.N1, j.Point.N2}]
	}

	start := time.Now()
	var doneCount atomic.Int64
	runStage := func(ids []int, storeSeeds bool) {
		if len(ids) == 0 {
			return
		}
		ch := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for id := range ch {
					if spec.Progress != nil {
						spec.Progress(ProgressEvent{
							Kind: ProgressJobStart, Job: jobs[id],
							Done: int(doneCount.Load()), Total: len(run),
						})
					}
					jr, raw := spec.runJob(ctx, jobs[id], seedFor(jobs[id]), len(jobs))
					all[id] = jr
					if storeSeeds && raw != nil && jr.Status == StatusOK {
						seedMu.Lock()
						k := groupKey{jobs[id].Method, jobs[id].Point.N1, jobs[id].Point.N2}
						if _, dup := seeds[k]; !dup {
							//mpde:floatdet-ok leader-only: the first converged job per group wins under seedMu, and stage-two jobs only start after the stage-one barrier
							seeds[k] = raw
						}
						seedMu.Unlock()
					}
					if spec.Progress != nil {
						cp := jr
						spec.Progress(ProgressEvent{
							Kind: ProgressJobDone, Job: jobs[id], Result: &cp,
							Done: int(doneCount.Add(1)), Total: len(run),
						})
					} else {
						doneCount.Add(1)
					}
				}
			}()
		}
	feed:
		for _, id := range ids {
			select {
			case <-ctx.Done():
				break feed
			case ch <- id:
			}
		}
		close(ch)
		wg.Wait()
	}
	runStage(stage1, spec.WarmStart)
	runStage(stage2, false)
	res.Wall = time.Since(start)
	if spec.Subset == nil {
		res.Jobs = all
	} else {
		res.Jobs = make([]JobResult, len(run))
		for i, j := range run {
			res.Jobs[i] = all[j.ID]
		}
	}
	return res, ctx.Err()
}

// seedable reports whether a method's registry descriptor marks its
// converged grid as a reusable warm start (full-grid X0 in the
// (j·N1+i)·n+k layout shared by QPSS and HB).
func seedable(m Method) bool {
	d, ok := analysis.Lookup(string(m))
	return ok && d.Seedable
}

func (s *Spec) spectrumTop() int {
	switch {
	case s.SpectrumTop > 0:
		return s.SpectrumTop
	case s.SpectrumTop < 0:
		return 0
	default:
		return 5
	}
}

// assemblyWorkers bounds a QPSS job's intra-job assembly parallelism: when
// the engine pool actually runs jobs concurrently, job-level parallelism
// already saturates the cores, and letting every job additionally fan
// GOMAXPROCS assembly goroutines would oversubscribe quadratically. The
// pool's effective parallelism is min(Workers, jobs) — a single-job spec
// keeps the assembler's default (all cores) no matter how many idle pool
// slots the spec configured, as does a single-worker pool. Results are
// byte-identical either way.
func (s *Spec) assemblyWorkers(nJobs int) int {
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > nJobs && nJobs > 0 {
		workers = nJobs
	}
	if workers > 1 {
		return 1
	}
	return 0 // assembler default: GOMAXPROCS
}

// tuning collects the engine-level knobs the registry descriptors use to
// derive per-method parameters; nJobs is the spec's total job count, which
// decides whether intra-job assembly may fan out.
func (s *Spec) tuning(nJobs int) analysis.Tuning {
	return analysis.Tuning{
		DiffT1: s.DiffT1, DiffT2: s.DiffT2,
		TransientPeriods:   s.TransientPeriods,
		StepsPerFastPeriod: s.StepsPerFastPeriod,
		AssemblyWorkers:    s.assemblyWorkers(nJobs),
		Linear:             s.Linear,
		Accuracy:           analysis.Accuracy{RelTol: s.RelTol, AbsTol: s.AbsTol},
	}
}

// runJob executes one job under its per-job context through the analysis
// registry and returns the result plus, for seedable methods, the converged
// raw grid. nJobs is the spec's total job count (it gates intra-job
// assembly parallelism).
func (s *Spec) runJob(ctx context.Context, job Job, seed []float64, nJobs int) (jr JobResult, raw []float64) {
	jr = JobResult{Job: job}
	if err := ctx.Err(); err != nil {
		jr.Status, jr.Err = StatusCanceled, err.Error()
		return jr, nil
	}
	jctx := ctx
	if s.JobTimeout > 0 {
		var cancel context.CancelFunc
		jctx, cancel = context.WithTimeout(ctx, s.JobTimeout)
		defer cancel()
	}
	var span *obs.Span
	jctx, span = obs.Start(jctx, "sweep.job")
	if span != nil {
		span.SetInt("id", int64(job.ID))
		span.SetStr("method", string(job.Method))
		defer func() {
			span.SetStr("status", string(jr.Status))
			span.SetInt("newton_iters", int64(jr.NewtonIters))
			span.End()
		}()
	}

	t0 := time.Now()
	defer func() { jr.Wall = time.Since(t0) }()
	// A panicking builder or analysis (e.g. a probe index out of range)
	// must fail its own job, not take down the whole sweep.
	defer func() {
		if p := recover(); p != nil {
			jr.Status = StatusFailed
			jr.Err = fmt.Sprintf("panic: %v", p)
			raw = nil
		}
	}()

	tgt, err := s.Build(job.Point)
	if err == nil && (tgt == nil || tgt.Ckt == nil) {
		err = errors.New("sweep: builder returned no circuit")
	}
	if err == nil {
		err = tgt.Shear.Validate()
	}
	if err != nil {
		jr.Status, jr.Err = StatusFailed, err.Error()
		return jr, nil
	}
	finalize(tgt.Ckt)

	d, err := analysis.Get(string(job.Method))
	if err == nil && d.SweepParams == nil {
		err = errors.New("sweep: analysis " + string(job.Method) + " is not sweepable")
	}
	var params any
	if err == nil {
		params, err = d.SweepParams(analysis.BuildInput{Target: *tgt, Point: job.Point, Tune: s.tuning(nJobs)})
	}
	if err != nil {
		jr.Status, jr.Err = StatusFailed, err.Error()
		return jr, nil
	}

	// Sweep points run 60 Newton iterations for every method (the
	// runners' own defaults are the solver-wide 50, tuned for single
	// solves; sweep points lean on the extra headroom).
	newton := solver.Options{MaxIter: 60}
	res, err := analysis.Run(jctx, analysis.Request{
		Method:  string(job.Method),
		Circuit: tgt.Ckt,
		Params:  params,
		Newton:  newton,
		Probes:  []analysis.Probe{tgt.Probe()},
		Seed:    seed,
	})
	if err != nil {
		jr.Err = err.Error()
		if analysis.Canceled(err) {
			if errors.Is(jctx.Err(), context.DeadlineExceeded) {
				jr.Status = StatusTimeout
			} else {
				jr.Status = StatusCanceled
			}
		} else {
			jr.Status = StatusFailed
		}
		return jr, nil
	}

	jr.Stats = res.Stats()
	jr.Assembly, jr.Factor = jr.AssemblyTime, jr.FactorTime

	probe := tgt.Probe()
	m := res.Measure(probe, tgt.RFAmp)
	jr.Swing, jr.GainValid, jr.Gain = m.Swing, m.GainValid, m.Gain
	if top := s.spectrumTop(); top > 0 {
		if lines, ok := res.Spectrum(probe, top); ok {
			jr.Spectrum = lines
		}
	}
	jr.Status = StatusOK
	if d.Seedable {
		raw = res.Seed()
	}
	return jr, raw
}
