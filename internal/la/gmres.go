package la

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Operator is anything that can apply a square linear map y = A·x. It lets
// GMRES run matrix-free (e.g. monodromy-matrix application in shooting).
type Operator interface {
	Apply(x, y []float64)
	Size() int
}

// Preconditioner approximately solves M·z = r in place of z.
type Preconditioner interface {
	Precondition(r, z []float64)
}

// IdentityPreconditioner is the no-op preconditioner.
type IdentityPreconditioner struct{}

// Precondition copies r into z.
func (IdentityPreconditioner) Precondition(r, z []float64) { copy(z, r) }

// csrOperator adapts a CSR matrix to the Operator interface.
type csrOperator struct{ m *CSR }

func (o csrOperator) Apply(x, y []float64) { o.m.MulVec(x, y) }
func (o csrOperator) Size() int            { return o.m.Rows }

// AsOperator wraps a CSR matrix as an Operator.
func AsOperator(m *CSR) Operator { return csrOperator{m} }

// GMRESOptions configures the restarted GMRES solver.
type GMRESOptions struct {
	Restart int     // Krylov subspace dimension before restart (default 30)
	MaxIter int     // total iteration cap (default 10·n)
	Tol     float64 // relative residual target ‖r‖/‖b‖ (default 1e-10)
	M       Preconditioner
}

// GMRESResult reports convergence details.
type GMRESResult struct {
	Iterations int
	Residual   float64 // final relative residual
	Converged  bool
	// Wall is the solve's wall-clock time (observability only — excluded
	// from every byte-stable export).
	Wall time.Duration
}

// ErrNoConvergence is returned when an iterative solver hits its iteration cap.
var ErrNoConvergence = errors.New("la: iterative solver did not converge")

// GMRESSolver is a restarted GMRES(m) solver that owns its Krylov workspace
// — the m+1 basis vectors, the Hessenberg, the Givens rotation arrays — so
// repeated Solve calls (one per Newton iteration on the iterative path)
// reuse storage instead of reallocating it. The zero value is ready to use;
// the workspace is sized lazily on first Solve and grows when a later call
// needs a larger n or restart length. Basis vectors are allocated when the
// Arnoldi process first reaches them: a solve that converges in k
// iterations holds k+1, not m+1. Not safe for concurrent use.
type GMRESSolver struct {
	n, m    int
	v       [][]float64 // Krylov basis, up to m+1 vectors of length n (nil until used)
	h       *Dense      // Hessenberg, (m+1)×m
	cs, sn  []float64
	g, y    []float64
	r, w, z []float64
}

// ensure sizes the workspace for dimension n and restart length m.
func (s *GMRESSolver) ensure(n, m int) {
	if s.n >= n && s.m >= m {
		return
	}
	if n < s.n {
		n = s.n
	}
	if m < s.m {
		m = s.m
	}
	s.n, s.m = n, m
	s.v = make([][]float64, m+1)
	s.h = NewDense(m+1, m)
	s.cs = make([]float64, m)
	s.sn = make([]float64, m)
	s.g = make([]float64, m+1)
	s.y = make([]float64, m)
	s.r = make([]float64, n)
	s.w = make([]float64, n)
	s.z = make([]float64, n)
}

// GMRES solves A·x = b by restarted, right-preconditioned GMRES(m). x holds
// the initial guess on entry and the solution on exit. It allocates a fresh
// workspace per call; hot paths should hold a GMRESSolver instead.
func GMRES(a Operator, b, x []float64, opt GMRESOptions) (GMRESResult, error) {
	return new(GMRESSolver).Solve(a, b, x, opt)
}

// Solve runs restarted right-preconditioned GMRES(m) against the solver's
// reusable workspace. x holds the initial guess on entry and the solution on
// exit.
//
//mpde:hotpath
func (s *GMRESSolver) Solve(a Operator, b, x []float64, opt GMRESOptions) (res GMRESResult, err error) {
	t0 := time.Now()
	defer func() { res.Wall = time.Since(t0) }() //mpde:alloc-ok one timing closure per solve
	n := a.Size()
	if len(b) != n || len(x) != n {
		return GMRESResult{}, ErrShape
	}
	if opt.Restart <= 0 {
		opt.Restart = 30
	}
	if opt.Restart > n {
		opt.Restart = n
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 10 * n
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-10
	}
	if opt.M == nil {
		opt.M = IdentityPreconditioner{} // zero-field box: no allocation
	}
	m := opt.Restart
	normB := Norm2(b)
	if normB == 0 {
		Fill(x, 0)
		return GMRESResult{Converged: true}, nil
	}

	s.ensure(n, m)
	v, h, cs, sn := s.v, s.h, s.cs, s.sn
	g := s.g
	r, w, z := s.r[:n], s.w[:n], s.z[:n]
	for i, vi := range v {
		if vi != nil {
			v[i] = vi[:n]
		}
	}
	if v[0] == nil {
		v[0] = make([]float64, n, s.n) //mpde:alloc-ok basis vector allocated on first use, reused after
	}

	totalIters := 0
	for totalIters < opt.MaxIter {
		// r = b − A·x
		a.Apply(x, r)
		for i := range r {
			r[i] = b[i] - r[i]
		}
		beta := Norm2(r)
		rel := beta / normB
		if rel <= opt.Tol {
			return GMRESResult{Iterations: totalIters, Residual: rel, Converged: true}, nil
		}
		if !finite(beta) { //mpde:coldpath a non-finite residual never recovers
			return nonFinite(totalIters, rel, "residual")
		}
		scaleInto(v[0], 1/beta, r)
		Fill(g, 0)
		g[0] = beta

		k := 0
		for ; k < m && totalIters < opt.MaxIter; k++ {
			totalIters++
			// w = A·M⁻¹·v_k (right preconditioning)
			opt.M.Precondition(v[k], z)
			a.Apply(z, w)
			// Modified Gram–Schmidt, one pass per basis vector: projection
			// i's Axpy runs fused with projection i+1's Dot, and the last
			// Axpy with the norm.
			hik := Dot(w, v[0])
			for i := 0; i < k; i++ {
				h.Set(i, k, hik)
				hik = axpyDot(-hik, v[i], w, v[i+1])
			}
			h.Set(k, k, hik)
			hk1 := axpyNorm2(-hik, v[k], w)
			if !finite(hk1) { //mpde:coldpath a non-finite Krylov vector never recovers
				return nonFinite(totalIters, math.NaN(), "Krylov vector")
			}
			h.Set(k+1, k, hk1)
			if v[k+1] == nil {
				v[k+1] = make([]float64, n, s.n) //mpde:alloc-ok basis vector allocated on first use, reused after
			}
			if hk1 > 0 {
				scaleInto(v[k+1], 1/hk1, w)
			}
			// Apply accumulated Givens rotations to the new column.
			for i := 0; i < k; i++ {
				t := cs[i]*h.At(i, k) + sn[i]*h.At(i+1, k)
				h.Set(i+1, k, -sn[i]*h.At(i, k)+cs[i]*h.At(i+1, k))
				h.Set(i, k, t)
			}
			// New rotation to annihilate h(k+1,k).
			den := math.Hypot(h.At(k, k), h.At(k+1, k))
			if den == 0 {
				cs[k], sn[k] = 1, 0
			} else {
				cs[k], sn[k] = h.At(k, k)/den, h.At(k+1, k)/den
			}
			h.Set(k, k, cs[k]*h.At(k, k)+sn[k]*h.At(k+1, k))
			h.Set(k+1, k, 0)
			if !finite(h.At(k, k)) { //mpde:coldpath a non-finite Hessenberg never recovers
				return nonFinite(totalIters, math.NaN(), "Hessenberg diagonal")
			}
			g[k+1] = -sn[k] * g[k]
			g[k] = cs[k] * g[k]
			if math.Abs(g[k+1])/normB <= opt.Tol {
				k++
				break
			}
			if hk1 == 0 { // lucky breakdown
				k++
				break
			}
		}
		// Solve the small triangular system H·y = g.
		y := s.y[:k]
		for i := k - 1; i >= 0; i-- {
			s := g[i]
			for j := i + 1; j < k; j++ {
				s -= h.At(i, j) * y[j]
			}
			y[i] = s / h.At(i, i)
		}
		// x += M⁻¹·(V·y)
		Fill(w, 0)
		for i := 0; i < k; i++ {
			Axpy(y[i], v[i], w)
		}
		opt.M.Precondition(w, z)
		// A singular Hessenberg (A·M⁻¹ rank-deficient on the Krylov space)
		// or an overflowing correction fails the solve with x unchanged.
		ok := true
		for i, xi := range x {
			z[i] += xi
			ok = ok && finite(z[i])
		}
		if !ok { //mpde:coldpath a non-finite update never recovers
			return nonFinite(totalIters, rel, "update")
		}
		copy(x, z)

		a.Apply(x, r)
		for i := range r {
			r[i] = b[i] - r[i]
		}
		rel = Norm2(r) / normB
		if rel <= opt.Tol {
			return GMRESResult{Iterations: totalIters, Residual: rel, Converged: true}, nil
		}
	}
	a.Apply(x, r)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	rel := Norm2(r) / normB
	return GMRESResult{Iterations: totalIters, Residual: rel, Converged: false}, ErrNoConvergence
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// nonFinite ends a solve whose Krylov process produced a NaN or ±Inf: every
// later iterate would inherit it, so running on to MaxIter only burns
// operator applies.
func nonFinite(iters int, rel float64, what string) (GMRESResult, error) {
	return GMRESResult{Iterations: iters, Residual: rel},
		fmt.Errorf("%w: non-finite %s at iteration %d", ErrNoConvergence, what, iters)
}

// SparseLUPreconditioner wraps an exact sparse LU as a (direct) preconditioner,
// useful to compare iterative vs direct solves through the same interface.
type SparseLUPreconditioner struct{ F *SparseLU }

// Precondition solves exactly with the wrapped factorisation.
func (p SparseLUPreconditioner) Precondition(r, z []float64) { p.F.Solve(r, z) }
