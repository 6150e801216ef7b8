package analysis

import (
	"repro/internal/core"
	"repro/internal/hb"
)

// Work estimates what a job costs, in transient time steps, from the typed
// parameters it runs with, never from timings. The sweep engine starts its
// jobs longest-estimated-first by it, so that a long baseline does not
// start last behind a queue of short jobs. The per-point ratios were
// measured on the speedup-vs-disparity sweep (the unbalanced mixer at
// F1 = 100 MHz, disparities 50, 200 and 1000) against the time of one
// transient step there.
const (
	// shootingPeriods is the periods a shooting job integrates: shooting
	// Newton converges from the DC start in two iterations at every
	// disparity of the sweep, and a shooting step costs 1.0–1.4
	// transient steps.
	shootingPeriods = 2
	// qpssWorkPerPoint: a 40×30 QPSS solve, the envelope-march start
	// included, costs 1.5–1.8 transient steps per grid point.
	qpssWorkPerPoint = 1.5
	// envelopeWorkPerPoint: envelope following costs 0.7–1.0 transient
	// steps per fast-axis point and slow step.
	envelopeWorkPerPoint = 0.8
	// hbWorkPerPoint: harmonic balance (GMRES over 2-D transforms) costs
	// 370–500 transient steps per torus sample at 32×4 and 64×4.
	hbWorkPerPoint = 400
)

// Work returns the estimated cost of a job with the given typed
// parameters: their Work method's value, or 0 for parameters without one.
func Work(params any) float64 {
	if w, ok := params.(interface{ Work() float64 }); ok {
		return w.Work()
	}
	return 0
}

// Work is the run's step count, TStop/Step (Run's default step gives
// 1000).
func (p TransientParams) Work() float64 {
	if p.Step <= 0 {
		return 1000
	}
	return p.TStop / p.Step
}

// Work is Steps times the periods a shooting solve integrates.
func (p ShootingParams) Work() float64 {
	return float64(orDefault(p.Steps, 200)) * shootingPeriods
}

// Work is the grid's N1·N2 points at the QPSS per-point ratio.
func (p QPSSParams) Work() float64 {
	return float64(orDefault(p.N1, core.DefaultN1)*orDefault(p.N2, core.DefaultN2)) * qpssWorkPerPoint
}

// Work is the torus's N1·N2 samples at the HB per-point ratio.
func (p HBParams) Work() float64 {
	n2 := orDefault(p.N2, hb.DefaultN2)
	if p.F2 <= 0 {
		n2 = 1
	}
	return float64(orDefault(p.N1, hb.DefaultN1)*n2) * hbWorkPerPoint
}

// Work is the fast axis's N1 points times the slow steps, T2Stop/StepT2
// (30 by default), at the envelope per-point ratio.
func (p EnvelopeParams) Work() float64 {
	steps := 30.0
	if p.T2Stop > 0 && p.StepT2 > 0 {
		steps = p.T2Stop / p.StepT2
	}
	return float64(orDefault(p.N1, core.DefaultN1)) * steps * envelopeWorkPerPoint
}
