// Package hb implements two-tone harmonic balance (HB) — the frequency-
// domain steady-state method the paper positions itself against. HB expands
// every waveform in a box-truncated 2-D Fourier series over the torus phases
// (θ1, θ2) = (f1·t, f2·t); because sum and difference frequencies appear
// explicitly among the mixes, HB handles closely spaced tones naturally. Its
// Achilles' heel — the reason the paper's time-domain method exists — is
// that sharp switching waveforms need very many harmonics (Gibbs), which the
// ablation benchmarks demonstrate.
//
// The implementation uses the time-collocation form of HB: unknowns are the
// waveform samples on an N1×N2 torus grid, and the time derivative is the
// exact spectral operator
//
//	d/dt = f1·∂/∂θ1 + f2·∂/∂θ2  →  DFT-diag(j2π(k1 f1 + k2 f2))-IDFT
//
// applied plane-wise with the in-house FFT. This is algebraically equivalent
// to classical frequency-domain HB with a full box truncation (N1/2, N2/2
// harmonics) while reusing the device-stamping machinery. Newton updates are
// solved matrix-free by GMRES, preconditioned with the sparse LU of the
// companion finite-difference (MPDE-style) Jacobian.
package hb

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/fft"
	"repro/internal/la"
	"repro/internal/transient"
)

// Default torus samples per axis (harmonic box |k1| ≤ N1/2, |k2| ≤ N2/2).
const (
	DefaultN1 = 32
	DefaultN2 = 8
)

// Options configures a two-tone HB solve.
type Options struct {
	// F1, F2 are the driving tone frequencies (F2 = 0 selects single-tone
	// HB with N2 forced to 1).
	F1, F2 float64
	// N1, N2 are samples per torus axis; the retained harmonic box is
	// |k1| ≤ N1/2, |k2| ≤ N2/2. Defaults 32 and 8.
	N1, N2 int
	// MaxIter caps Newton iterations (default 60).
	MaxIter int
	// Tol is the residual ∞-norm convergence target relative to the
	// starting residual (default 1e-8).
	Tol float64
	// GMRESTol, GMRESIter configure the inner linear solves.
	GMRESTol  float64
	GMRESIter int
	// X0 warm-starts the grid (length N1·N2·n).
	X0 []float64
	// Progress, when non-nil, is called at the top of every Newton
	// iteration with the 1-based iteration count and the current residual
	// ∞-norm (mirroring solver.Options.Progress).
	Progress func(iter int, residual float64)
}

// Solution is a converged HB steady state on the torus grid.
type Solution struct {
	Ckt    *circuit.Circuit
	F1, F2 float64
	N1, N2 int
	X      []float64 // layout (j·N1+i)·n + k, θ1 index i, θ2 index j
	Stats  Stats

	n int
}

// Stats reports solver work.
type Stats struct {
	NewtonIters int
	GMRESIters  int
	Residual    float64
}

// ErrNoConvergence reports a failed HB Newton loop.
var ErrNoConvergence = errors.New("hb: Newton did not converge")

// ErrInterrupted reports a solve aborted by context cancellation. The
// returned errors also wrap ctx.Err(), so errors.Is against
// context.Canceled / context.DeadlineExceeded classifies the cause.
var ErrInterrupted = errors.New("hb: solve interrupted")

// Solve runs harmonic balance. Cancelling ctx aborts the Newton loop
// cooperatively; an already-canceled context returns ctx.Err() before any
// grid evaluation.
func Solve(ctx context.Context, ckt *circuit.Circuit, opt Options) (*Solution, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opt.F1 <= 0 {
		return nil, errors.New("hb: F1 must be positive")
	}
	if bad := ckt.NonTorusSources(); len(bad) > 0 {
		return nil, fmt.Errorf("hb: circuit has non-torus sources: %v", bad)
	}
	if opt.N1 <= 0 {
		opt.N1 = DefaultN1
	}
	if opt.F2 <= 0 {
		opt.N2 = 1
		opt.F2 = opt.F1 // unused when N2 == 1
	} else if opt.N2 <= 0 {
		opt.N2 = DefaultN2
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 60
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-8
	}
	if opt.GMRESTol <= 0 {
		opt.GMRESTol = 1e-10
	}
	if opt.GMRESIter <= 0 {
		opt.GMRESIter = 2000
	}
	ckt.Finalize()
	n := ckt.Size()
	N1, N2 := opt.N1, opt.N2
	nTot := N1 * N2 * n

	sol := &Solution{Ckt: ckt, F1: opt.F1, F2: opt.F2, N1: N1, N2: N2, n: n}
	w := newWorkspace(ckt, opt, n)

	x := make([]float64, nTot)
	if opt.X0 != nil {
		if len(opt.X0) != nTot {
			return nil, fmt.Errorf("hb: X0 size %d, want %d", len(opt.X0), nTot)
		}
		copy(x, opt.X0)
	} else {
		xdc, _, err := transient.DC(ctx, ckt, transient.DCOptions{})
		if err != nil {
			return nil, fmt.Errorf("hb: DC start failed: %w", err)
		}
		for p := 0; p < N1*N2; p++ {
			copy(x[p*n:(p+1)*n], xdc)
		}
	}

	r := w.residual(x)
	r0 := la.NormInf(r)
	target := opt.Tol * math.Max(1, r0)
	for it := 0; it < opt.MaxIter; it++ {
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("%w after %d iterations: %w", ErrInterrupted, sol.Stats.NewtonIters, ctx.Err())
		default:
		}
		nrm := la.NormInf(r)
		if opt.Progress != nil {
			opt.Progress(it+1, nrm)
		}
		sol.Stats.NewtonIters = it + 1
		sol.Stats.Residual = nrm
		if nrm <= target {
			sol.X = x
			return sol, nil
		}
		// Build the finite-difference preconditioner at the current iterate;
		// the C, G stamps it captures also serve the matrix-free
		// Jacobian-vector products below.
		prec, err := w.fdPreconditioner(x)
		if err != nil {
			return nil, fmt.Errorf("hb: preconditioner failed: %w", err)
		}
		op := &hbOperator{w: w}
		neg := make([]float64, nTot)
		for i := range neg {
			neg[i] = -r[i]
		}
		dx := make([]float64, nTot)
		res, err := la.GMRES(op, neg, dx, la.GMRESOptions{
			Tol: opt.GMRESTol, MaxIter: opt.GMRESIter, Restart: 60, M: prec})
		sol.Stats.GMRESIters += res.Iterations
		if err != nil {
			return nil, fmt.Errorf("hb: GMRES failed at iter %d (residual %.3e): %w", it, res.Residual, err)
		}
		// Damped update.
		alpha := 1.0
		var rNew []float64
		for h := 0; h < 8; h++ {
			xt := make([]float64, nTot)
			for i := range xt {
				xt[i] = x[i] + alpha*dx[i]
			}
			rNew = w.residual(xt)
			if la.NormInf(rNew) <= 2*nrm || h == 7 {
				x = xt
				break
			}
			alpha /= 2
		}
		r = rNew
	}
	sol.Stats.Residual = la.NormInf(r)
	if sol.Stats.Residual <= target {
		sol.X = x
		return sol, nil
	}
	return nil, fmt.Errorf("%w after %d iterations (residual %.3e, target %.3e)",
		ErrNoConvergence, sol.Stats.NewtonIters, sol.Stats.Residual, target)
}

// workspace holds the reusable buffers for residual/Jacobian work.
type workspace struct {
	ckt    *circuit.Circuit
	ev     *circuit.Eval
	opt    Options
	n      int
	N1, N2 int
	omega  []float64 // j-less angular frequency per (i,j) spectral bin

	q, fb []float64
	cs    []*la.CSR // captured C blocks
	gs    []*la.CSR // captured G blocks
}

func newWorkspace(ckt *circuit.Circuit, opt Options, n int) *workspace {
	N1, N2 := opt.N1, opt.N2
	w := &workspace{
		ckt: ckt, ev: ckt.NewEval(), opt: opt, n: n, N1: N1, N2: N2,
		q:  make([]float64, N1*N2*n),
		fb: make([]float64, N1*N2*n),
		cs: make([]*la.CSR, N1*N2),
		gs: make([]*la.CSR, N1*N2),
	}
	// Angular frequency of bin (k1, k2) with FFT index conventions. The
	// Nyquist bin of an even-length axis gets zero derivative — the standard
	// spectral-differentiation convention that keeps real signals real.
	w.omega = make([]float64, N1*N2)
	for i := 0; i < N1; i++ {
		k1 := i
		if k1 > N1/2 {
			k1 -= N1
		}
		if N1%2 == 0 && i == N1/2 {
			k1 = 0
		}
		for j := 0; j < N2; j++ {
			k2 := j
			if k2 > N2/2 {
				k2 -= N2
			}
			if N2%2 == 0 && j == N2/2 {
				k2 = 0
			}
			f2 := opt.F2
			if N2 == 1 {
				f2 = 0
			}
			w.omega[j*N1+i] = 2 * math.Pi * (float64(k1)*opt.F1 + float64(k2)*f2)
		}
	}
	return w
}

// evalGrid stamps the circuit at every collocation point.
func (w *workspace) evalGrid(x []float64, jac bool) {
	n, N1, N2 := w.n, w.N1, w.N2
	for j := 0; j < N2; j++ {
		th2 := float64(j) / float64(N2)
		for i := 0; i < N1; i++ {
			th1 := float64(i) / float64(N1)
			p := j*N1 + i
			ctx := device.EvalCtx{Torus: true, Th1: th1, Th2: th2, Lambda: 1}
			res := w.ev.EvalAt(x[p*n:(p+1)*n], ctx, jac)
			copy(w.q[p*n:(p+1)*n], res.Q)
			for k := 0; k < n; k++ {
				w.fb[p*n+k] = res.F[k] + res.B[k]
			}
			if jac {
				w.cs[p] = res.C
				w.gs[p] = res.G
			}
		}
	}
}

// spectralDerivative applies d/dt to each circuit-unknown plane of v
// (grid-sampled) in place of dst.
func (w *workspace) spectralDerivative(v, dst []float64) {
	n, N1, N2 := w.n, w.N1, w.N2
	plane := make([]complex128, N1*N2)
	for k := 0; k < n; k++ {
		// Gather plane in (i fastest) layout → FFT wants row-major with the
		// last index contiguous; use (j, i) as (row, col) = (N2, N1).
		for j := 0; j < N2; j++ {
			for i := 0; i < N1; i++ {
				plane[j*N1+i] = complex(v[(j*N1+i)*n+k], 0)
			}
		}
		sp := fft.Forward2D(plane, N2, N1)
		for p := range sp {
			// p = j*N1 + i matches the omega layout.
			sp[p] *= complex(0, w.omega[p])
		}
		out := fft.Inverse2D(sp, N2, N1)
		for j := 0; j < N2; j++ {
			for i := 0; i < N1; i++ {
				dst[(j*N1+i)*n+k] = real(out[j*N1+i])
			}
		}
	}
}

// residual computes R(x) = D q(x) + f(x) + b.
func (w *workspace) residual(x []float64) []float64 {
	w.evalGrid(x, false)
	out := make([]float64, len(x))
	w.spectralDerivative(w.q, out)
	for i := range out {
		out[i] += w.fb[i]
	}
	return out
}

// hbOperator applies J·v = D(C·v) + G·v using the captured blocks.
type hbOperator struct {
	w   *workspace
	cv  []float64
	buf []float64
}

func (o *hbOperator) Size() int { return len(o.w.q) }

func (o *hbOperator) Apply(v, out []float64) {
	w := o.w
	n := w.n
	if o.cv == nil {
		o.cv = make([]float64, len(v))
		o.buf = make([]float64, len(v))
	}
	// Pointwise C·v and G·v.
	for p := 0; p < w.N1*w.N2; p++ {
		seg := v[p*n : (p+1)*n]
		cseg := o.cv[p*n : (p+1)*n]
		gseg := out[p*n : (p+1)*n]
		w.cs[p].MulVec(seg, cseg)
		w.gs[p].MulVec(seg, gseg)
	}
	w.spectralDerivative(o.cv, o.buf)
	for i := range out {
		out[i] += o.buf[i]
	}
}

// fdPreconditioner stamps and stores C, G at x (which hbOperator then
// applies) and factors the backward-difference companion Jacobian: the
// spectral derivative is replaced by first-order differences on the same
// grid, giving a sparse, bandable matrix whose LU is an excellent
// preconditioner for the dense spectral operator.
func (w *workspace) fdPreconditioner(x []float64) (la.Preconditioner, error) {
	n, N1, N2 := w.n, w.N1, w.N2
	w.evalGrid(x, true)
	// Difference rates: d/dt ≈ f1·N1·Δθ1 + f2·N2·Δθ2 on the unit torus.
	r1 := w.opt.F1 * float64(N1)
	r2 := 0.0
	if N2 > 1 {
		r2 = w.opt.F2 * float64(N2)
	}
	tr := la.NewTriplet(N1*N2*n, N1*N2*n)
	stamp := func(pRow, pCol int, m *la.CSR, coef float64) {
		rb, cb := pRow*n, pCol*n
		for i := 0; i < m.Rows; i++ {
			for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
				tr.Append(rb+i, cb+m.ColIdx[k], coef*m.Val[k])
			}
		}
	}
	for j := 0; j < N2; j++ {
		for i := 0; i < N1; i++ {
			p := j*N1 + i
			stamp(p, p, w.gs[p], 1)
			stamp(p, p, w.cs[p], r1+r2)
			pm1 := j*N1 + (i-1+N1)%N1
			stamp(p, pm1, w.cs[pm1], -r1)
			if N2 > 1 {
				pm2 := ((j-1+N2)%N2)*N1 + i
				stamp(p, pm2, w.cs[pm2], -r2)
			}
		}
	}
	f, err := la.SparseLUFactor(tr.Compress(), 0.001)
	if err != nil {
		return nil, err
	}
	return la.SparseLUPreconditioner{F: f}, nil
}
