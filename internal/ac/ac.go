// Package ac implements small-signal AC analysis: the circuit is linearised
// at an operating point and the phasor system (G + jωC)·X = B is solved over
// a frequency sweep. It rounds out the conventional-analysis substrate
// (DC / transient / shooting / HB) and provides independent checks of the
// device Jacobians — the same C and G stamps drive the MPDE method.
package ac

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"time"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/la"
	"repro/internal/solver"
	"repro/internal/transient"
)

// Options configures an AC sweep.
type Options struct {
	// Source names the independent V or I source carrying the (unit) AC
	// stimulus (required).
	Source string
	// Freqs lists the analysis frequencies in Hz (required, all > 0).
	Freqs []float64
	// X0 optionally supplies the operating point; nil computes a true bias
	// point (signals off).
	X0 []float64
}

// Result holds the phasor response.
type Result struct {
	Freqs []float64
	// X[k] is the complex solution vector at Freqs[k].
	X [][]complex128
	// Stats aggregates the solver work: the operating-point Newton solve
	// plus one dense complex factorisation per swept frequency, with
	// assembly and factorisation time accounted like the steady-state
	// analyses (so AC exports the same counters as QPSS through
	// analysis.Result.Stats()).
	Stats solver.Stats
}

// Gain returns |X(node)| across the sweep.
func (r *Result) Gain(idx int) []float64 {
	out := make([]float64, len(r.Freqs))
	for k := range r.Freqs {
		out[k] = cmplx.Abs(r.X[k][idx])
	}
	return out
}

// Corner3dB estimates the −3 dB frequency of X(node) relative to its
// response at the lowest swept frequency, by log-linear interpolation.
// Returns an error when the response never falls below the −3 dB level.
func (r *Result) Corner3dB(idx int) (float64, error) {
	g := r.Gain(idx)
	if len(g) < 2 {
		return 0, errors.New("ac: need at least two sweep points")
	}
	ref := g[0] / math.Sqrt2
	for k := 1; k < len(g); k++ {
		if g[k] <= ref {
			// Interpolate in log-f between k−1 and k.
			f0, f1 := r.Freqs[k-1], r.Freqs[k]
			g0, g1 := g[k-1], g[k]
			if g0 == g1 {
				return f1, nil
			}
			t := (g0 - ref) / (g0 - g1)
			return f0 * math.Pow(f1/f0, t), nil
		}
	}
	return 0, errors.New("ac: response does not cross -3 dB in the sweep")
}

// Analyze runs the AC sweep. Cancelling ctx stops the frequency sweep
// between points; an already-canceled context returns ctx.Err() before the
// operating-point solve.
func Analyze(ctx context.Context, ckt *circuit.Circuit, opt Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opt.Source == "" {
		return nil, errors.New("ac: Source is required")
	}
	if len(opt.Freqs) == 0 {
		return nil, errors.New("ac: Freqs is required")
	}
	for _, f := range opt.Freqs {
		if f <= 0 {
			return nil, fmt.Errorf("ac: non-positive frequency %g", f)
		}
	}
	ckt.Finalize()
	n := ckt.Size()

	// Operating point.
	var st solver.Stats
	x0 := opt.X0
	if x0 == nil {
		var err error
		var dcSt solver.Stats
		x0, dcSt, err = transient.DC(ctx, ckt, transient.DCOptions{SignalsOff: true})
		if err != nil {
			return nil, fmt.Errorf("ac: operating point failed: %w", err)
		}
		st = dcSt
	} else if len(x0) != n {
		return nil, fmt.Errorf("ac: X0 size %d, want %d", len(x0), n)
	}

	// Linearise: C, G at the operating point.
	t0 := time.Now()
	ev := ckt.NewEval()
	res := ev.EvalAt(x0, device.EvalCtx{Lambda: 0, SignalOnlyLambda: true}, true)
	cm, gm := res.C, res.G
	st.AssemblyTime += time.Since(t0)

	// Build the stimulus vector for the named source.
	b, err := stimulus(ckt, opt.Source, n)
	if err != nil {
		return nil, err
	}

	out := &Result{Freqs: append([]float64(nil), opt.Freqs...)}
	for _, f := range opt.Freqs {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("ac: sweep interrupted at f=%g: %w", f, err)
		}
		w := 2 * math.Pi * f
		// A = G + jωC as dense complex (MNA systems here are small; the
		// sweep dominates, not the solve).
		ta := time.Now()
		a := la.NewCDense(n, n)
		for i := 0; i < gm.Rows; i++ {
			for k := gm.RowPtr[i]; k < gm.RowPtr[i+1]; k++ {
				a.Add(i, gm.ColIdx[k], complex(gm.Val[k], 0))
			}
		}
		for i := 0; i < cm.Rows; i++ {
			for k := cm.RowPtr[i]; k < cm.RowPtr[i+1]; k++ {
				a.Add(i, cm.ColIdx[k], complex(0, w*cm.Val[k]))
			}
		}
		st.AssemblyTime += time.Since(ta)
		tf := time.Now()
		lu, err := la.CDenseLU(a)
		st.FactorTime += time.Since(tf)
		if err != nil {
			return nil, fmt.Errorf("ac: singular at f=%g: %w", f, err)
		}
		st.Factorizations++
		x := make([]complex128, n)
		lu.Solve(b, x)
		out.X = append(out.X, x)
	}
	out.Stats = st
	return out, nil
}

// stimulus builds the RHS phasor vector: for a VSource the unit stimulus
// enters the branch equation (v+ − v− = 1); for an ISource it enters KCL.
func stimulus(ckt *circuit.Circuit, name string, n int) ([]complex128, error) {
	b := make([]complex128, n)
	for _, d := range ckt.Devices() {
		if d.Name() != name {
			continue
		}
		switch s := d.(type) {
		case *device.VSource:
			b[s.Branch()] = 1
			return b, nil
		case *device.ISource:
			// Unit current from P through the source to N: injects −1 at P
			// in the residual convention, so the RHS gets −(+1) at P.
			if s.P >= 0 {
				b[s.P] -= 1
			}
			if s.N >= 0 {
				b[s.N] += 1
			}
			return b, nil
		default:
			return nil, fmt.Errorf("ac: device %q is not an independent source", name)
		}
	}
	return nil, fmt.Errorf("ac: no source named %q", name)
}

// LogSweep returns nPts log-spaced frequencies from f0 to f1 inclusive.
func LogSweep(f0, f1 float64, nPts int) []float64 {
	if nPts < 2 {
		nPts = 2
	}
	out := make([]float64, nPts)
	for k := 0; k < nPts; k++ {
		out[k] = f0 * math.Pow(f1/f0, float64(k)/float64(nPts-1))
	}
	return out
}
