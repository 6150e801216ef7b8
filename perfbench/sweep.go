package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/analysis"
	"repro/internal/ckts"
	"repro/internal/core"
	"repro/internal/sweep"
)

// The speedup-vs-disparity sweep: the unbalanced mixer at F1 = 100 MHz,
// each disparity F1/fd solved by QPSS on the paper's grid and by the
// shooting and transient baselines, on two sweep workers.
const (
	sweepF1      = 100e6
	sweepWorkers = 2
	// Gain agreement bounds of the repository's consistency suite.
	gainTolQPSS      = 0.10 // qpss vs shooting
	gainTolTransient = 0.05 // shooting vs transient
)

var disparities = []float64{50, 200, 1000}

// methodLabel names the metric family of a sweep method.
var methodLabel = map[sweep.Method]string{
	sweep.QPSS: "mpde", sweep.Shooting: "shooting", sweep.Transient: "transient",
}

func unbalancedTarget(fd float64) *sweep.Target {
	m := ckts.NewUnbalancedMixer(ckts.UnbalancedMixerConfig{F1: sweepF1, Fd: fd})
	return &sweep.Target{Ckt: m.Ckt, Shear: m.Shear, OutP: m.Drain, OutM: -1, RFAmp: m.Cfg.RFAmp}
}

type sweepEnv struct {
	spec sweep.Spec
}

func setupSweep(string, int64) (env, error) {
	var points []sweep.Point
	for _, d := range disparities {
		points = append(points, sweep.Point{Fd: sweepF1 / d, N1: 40, N2: 30})
	}
	e := &sweepEnv{spec: sweep.Spec{
		Name:    "speedup-vs-disparity",
		Methods: []sweep.Method{sweep.QPSS, sweep.Shooting, sweep.Transient},
		Points:  points,
		Build:   func(p sweep.Point) (*sweep.Target, error) { return unbalancedTarget(p.Fd), nil },
		Workers: sweepWorkers,
	}}
	if s := e.op(context.Background()); s.err != nil {
		return nil, fmt.Errorf("warm-up: %w", s.err)
	}
	return e, nil
}

func (e *sweepEnv) close() {}

func (e *sweepEnv) run(deadline time.Time, traced bool) []sample {
	return runOps(deadline, traced, e.op)
}

func (e *sweepEnv) op(ctx context.Context) sample {
	s := sample{kind: "op", parts: map[string]time.Duration{}, counts: counters{}, jobs: map[string]time.Duration{}}
	t0 := time.Now()
	res, err := sweep.Run(ctx, e.spec)
	s.wall = time.Since(t0)
	s.parts["sweep"] = s.wall
	if err != nil {
		s.err = err
		return s
	}
	for _, j := range res.Jobs {
		s.jobs[fmt.Sprintf("%s.job_s.d%.0f", methodLabel[j.Job.Method], sweepF1/j.Job.Point.Fd)] = j.Wall
		s.counts.addStats(analysis.Stats{
			NewtonIters: j.NewtonIters, Factorizations: j.Factorizations,
			Refactorizations: j.Refactorizations, PatternReuse: j.PatternReuse,
			OperatorApplies: j.OperatorApplies, PrecondBuilds: j.PrecondBuilds,
			BatchReuse: j.BatchReuse, LinearIters: j.LinearIters,
			GMRESFallbacks: j.GMRESFallbacks, Halvings: j.Halvings, Refinements: j.Refinements,
		})
		if j.Job.Method == sweep.QPSS {
			s.mpde.assembly += j.Assembly
			s.mpde.factor += j.Factor
		}
	}
	s.err = checkSweep(res)
	return s
}

// checkSweep demands every job ok with a measured gain, and the three
// methods' gains in agreement at every disparity.
func checkSweep(res *sweep.Result) error {
	if want := len(disparities) * 3; len(res.Jobs) != want {
		return fmt.Errorf("%d jobs, want %d", len(res.Jobs), want)
	}
	gain := map[string]float64{}
	for _, j := range res.Jobs {
		if j.Status != sweep.StatusOK || !j.GainValid {
			return fmt.Errorf("job %d (%s, fd %g): status %s, gain valid %v: %s",
				j.Job.ID, j.Job.Method, j.Job.Point.Fd, j.Status, j.GainValid, j.Err)
		}
		gain[fmt.Sprintf("%s/%g", j.Job.Method, j.Job.Point.Fd)] = j.Gain.Ratio
	}
	for _, d := range disparities {
		fd := sweepF1 / d
		q, sh, tr := gain[fmt.Sprintf("qpss/%g", fd)], gain[fmt.Sprintf("shooting/%g", fd)], gain[fmt.Sprintf("transient/%g", fd)]
		if e := math.Abs(q-sh) / sh; e > gainTolQPSS {
			return fmt.Errorf("disparity %g: qpss gain %.5g vs shooting %.5g (rel %.3g)", d, q, sh, e)
		}
		if e := math.Abs(sh-tr) / tr; e > gainTolTransient {
			return fmt.Errorf("disparity %g: shooting gain %.5g vs transient %.5g (rel %.3g)", d, sh, tr, e)
		}
	}
	return nil
}

func (e *sweepEnv) report(r *report, samples []sample, traced bool) {
	if !traced {
		ws := partSeconds(samples, "sweep")
		r.add("sweep_wall_p50_s", median(ws), "s", len(ws))
		return
	}
	// Per-job walls come from the run's untraced operations.
	jobMedian := func(name string) (float64, int) {
		var xs []float64
		for _, s := range samples {
			if d, ok := s.jobs[name]; ok && !s.traced && s.err == nil {
				xs = append(xs, d.Seconds())
			}
		}
		return median(xs), len(xs)
	}
	for _, d := range disparities {
		mpde, n := jobMedian(fmt.Sprintf("mpde.job_s.d%.0f", d))
		sh, _ := jobMedian(fmt.Sprintf("shooting.job_s.d%.0f", d))
		tr, _ := jobMedian(fmt.Sprintf("transient.job_s.d%.0f", d))
		r.add(fmt.Sprintf("mpde.job_s.d%.0f", d), mpde, "s", n)
		r.add(fmt.Sprintf("shooting.job_s.d%.0f", d), sh, "s", n)
		r.add(fmt.Sprintf("transient.job_s.d%.0f", d), tr, "s", n)
		if mpde > 0 {
			r.add(fmt.Sprintf("report.speedup_shooting.d%.0f", d), sh/mpde, "x", n)
			r.add(fmt.Sprintf("report.speedup_transient.d%.0f", d), tr/mpde, "x", n)
		}
	}
	var busy, lanes float64
	n := 0
	for _, s := range samples {
		if s.traced {
			busy += s.budget[auxSweepBusy]
			lanes += s.budget[auxSweepLanes]
			n++
		}
	}
	if lanes > 0 {
		r.add("sweep.busy_frac", busy/lanes, "frac", n)
	}
	r.add("sweep.jobs", float64(len(disparities)*3), "count", n)

	tgt := unbalancedTarget(sweepF1 / disparities[0])
	res, err := analysis.Run(context.Background(), analysis.Request{Method: "qpss", Circuit: tgt.Ckt,
		Params: analysis.QPSSParams{N1: 40, N2: 30, Shear: tgt.Shear}})
	if err != nil {
		panic(fmt.Sprintf("perfbench: probe solve: %v", err))
	}
	layerProbes(r, res.Raw().(*core.Solution), tgt.OutP, tgt.OutM)
}
