package la

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func diagCSR(d []float64) *CSR {
	tr := NewTriplet(len(d), len(d))
	for i, v := range d {
		tr.Append(i, i, v)
	}
	return tr.Compress()
}

// TestGMRESEarlyTerminationLowDegree: an operator with two distinct
// eigenvalues has minimal polynomial degree 2, so GMRES must hit the inner
// small-residual break and leave the Arnoldi cycle after two iterations —
// long before the restart length.
func TestGMRESEarlyTerminationLowDegree(t *testing.T) {
	const n = 12
	d := make([]float64, n)
	for i := range d {
		if i%2 == 0 {
			d[i] = 1
		} else {
			d[i] = 3
		}
	}
	m := diagCSR(d)
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i + 1)
	}
	x := make([]float64, n)
	res, err := GMRES(AsOperator(m), b, x, GMRESOptions{Tol: 1e-12})
	if err != nil || !res.Converged {
		t.Fatalf("GMRES failed: %v (res %+v)", err, res)
	}
	if res.Iterations > 2 {
		t.Fatalf("degree-2 operator took %d iterations, want ≤ 2", res.Iterations)
	}
	for i := range x {
		if math.Abs(x[i]-b[i]/d[i]) > 1e-10 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], b[i]/d[i])
		}
	}
}

// TestGMRESMaxIterExhaustedMidRestart caps the iteration budget so it runs
// out partway through a second Arnoldi cycle: the solver must still solve
// the partial least-squares problem, report the true iteration count, and
// return ErrNoConvergence rather than panic or spin.
func TestGMRESMaxIterExhaustedMidRestart(t *testing.T) {
	const n = 60
	rng := rand.New(rand.NewSource(9))
	tr := NewTriplet(n, n)
	for i := 0; i < n; i++ {
		tr.Append(i, i, 1+0.1*rng.Float64())
		tr.Append(i, (i+7)%n, rng.NormFloat64())
		tr.Append(i, (i+29)%n, rng.NormFloat64())
	}
	m := tr.Compress()
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	res, err := GMRES(AsOperator(m), b, x, GMRESOptions{MaxIter: 5, Restart: 4, Tol: 1e-15})
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrNoConvergence", err)
	}
	if res.Converged || res.Iterations != 5 {
		t.Fatalf("res = %+v, want 5 iterations, not converged", res)
	}
	// The partial second cycle's update must still be applied: the returned
	// residual is the true relative residual of x.
	r := make([]float64, n)
	m.MulVec(x, r)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	if got := Norm2(r) / Norm2(b); math.Abs(got-res.Residual) > 1e-12 {
		t.Fatalf("reported residual %v, recomputed %v", res.Residual, got)
	}
}

// TestGMRESSolverWorkspaceReuse runs one solver across shrinking and growing
// problem sizes: the lazily grown workspace must slice down correctly for
// smaller systems and regrow for larger ones.
func TestGMRESSolverWorkspaceReuse(t *testing.T) {
	var s GMRESSolver
	for _, n := range []int{40, 12, 64} {
		d := make([]float64, n)
		b := make([]float64, n)
		for i := range d {
			d[i] = 2 + float64(i%7)
			b[i] = math.Sin(float64(i + 1))
		}
		m := diagCSR(d)
		x := make([]float64, n)
		res, err := s.Solve(AsOperator(m), b, x, GMRESOptions{Tol: 1e-12})
		if err != nil || !res.Converged {
			t.Fatalf("n=%d: GMRES failed: %v (res %+v)", n, err, res)
		}
		for i := range x {
			if math.Abs(x[i]-b[i]/d[i]) > 1e-10 {
				t.Fatalf("n=%d: x[%d] = %v, want %v", n, i, x[i], b[i]/d[i])
			}
		}
	}
}

// nanOperator returns NaN wherever its input is (all) nonzero; zeroAtZero
// keeps A·0 = 0 so the NaNs first appear in the Krylov basis rather than
// in the initial residual.
type nanOperator struct {
	n          int
	zeroAtZero bool
	applies    int
}

func (o *nanOperator) Size() int { return o.n }

func (o *nanOperator) Apply(x, y []float64) {
	o.applies++
	zero := o.zeroAtZero
	for _, v := range x {
		zero = zero && v == 0
	}
	for i := range y {
		if zero {
			y[i] = 0
		} else {
			y[i] = x[i] * math.NaN()
		}
	}
}

// TestGMRESStopsOnNonFiniteBasis: once the residual or the Krylov basis is
// NaN no later iterate can recover, so GMRES must return at once — not run
// to MaxIter burning operator applies.
func TestGMRESStopsOnNonFiniteBasis(t *testing.T) {
	for _, tc := range []struct {
		name       string
		zeroAtZero bool
		want       string
	}{
		{"residual", false, "non-finite residual at iteration 0"},
		{"krylov", true, "non-finite Krylov vector at iteration 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 50
			op := &nanOperator{n: n, zeroAtZero: tc.zeroAtZero}
			b := make([]float64, n)
			Fill(b, 1)
			x := make([]float64, n)
			res, err := GMRES(op, b, x, GMRESOptions{MaxIter: 400})
			if !errors.Is(err, ErrNoConvergence) {
				t.Fatalf("err = %v, want ErrNoConvergence", err)
			}
			if err.Error() != "la: iterative solver did not converge: "+tc.want {
				t.Fatalf("err = %q, want it to name %q", err, tc.want)
			}
			if op.applies > 2 || res.Iterations > 1 || res.Converged {
				t.Fatalf("%d operator applies, result %+v; want ≤ 2 applies and an immediate exit", op.applies, res)
			}
		})
	}
}

// TestGMRESBasisGrowsOnFirstUse: a fresh solver whose solve converges in k
// iterations of a 30-vector restart holds at most k+1 basis vectors.
func TestGMRESBasisGrowsOnFirstUse(t *testing.T) {
	const n = 200
	d := make([]float64, n)
	b := make([]float64, n)
	for i := range d {
		d[i] = float64(1 + i%4) // four distinct eigenvalues: k ≤ 4
		b[i] = math.Sin(float64(i + 1))
	}
	var s GMRESSolver
	x := make([]float64, n)
	res, err := s.Solve(AsOperator(diagCSR(d)), b, x, GMRESOptions{Restart: 30, Tol: 1e-12})
	if err != nil || !res.Converged {
		t.Fatalf("GMRES failed: %v (res %+v)", err, res)
	}
	held := 0
	for _, v := range s.v {
		if v != nil {
			held++
		}
	}
	if len(s.v) != 31 || held > res.Iterations+1 {
		t.Fatalf("converged in %d iterations holding %d of %d basis vectors, want ≤ %d",
			res.Iterations, held, len(s.v), res.Iterations+1)
	}
	for i := range x {
		if math.Abs(x[i]-b[i]/d[i]) > 1e-10 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], b[i]/d[i])
		}
	}
}

// TestGramSchmidtKernelsMatchPrimitives: the fused kernels GMRES's
// Gram–Schmidt sweep runs are bit-identical to the Axpy/Dot/Norm2/Scal
// sequences they replace, over signed zeros, subnormals and entries above
// 1e300 (which exercise Norm2's rescaling).
func TestGramSchmidtKernelsMatchPrimitives(t *testing.T) {
	sub := math.SmallestNonzeroFloat64
	rng := rand.New(rand.NewSource(5))
	random := make([]float64, 257)
	for i := range random {
		random[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
	}
	cases := []struct {
		name    string
		x, y, z []float64
		a       float64
	}{
		{"signed-zeros", []float64{0, math.Copysign(0, -1), 0, 1}, []float64{math.Copysign(0, -1), 0, 0, -1}, []float64{1, -1, math.Copysign(0, -1), 2}, 1},
		{"negative-zero-coef", []float64{0, 1, -2}, []float64{math.Copysign(0, -1), 3, 4}, []float64{5, 6, 7}, math.Copysign(0, -1)},
		{"subnormal", []float64{sub, -3 * sub, 1e-310, 2e-308}, []float64{sub, sub, -1e-309, 1e-320}, []float64{1e-300, -sub, 1, 1e10}, 0.75},
		{"huge", []float64{1e301, -3e305, 2, 1e308}, []float64{5e300, 1e307, -1e306, 1}, []float64{1e-10, 2, 3, -4}, -0.5},
		{"mixed-scale", []float64{1e300, 1e-300, 0, -1e200, sub}, []float64{-1e301, 1e-301, 1, 1e150, 1}, []float64{1, 1, 1, 1e-150, 1e300}, 3},
		{"random", random, append([]float64(nil), random[1:]...), append([]float64(nil), random[2:]...), -1.25},
	}
	bits := func(v []float64) []uint64 {
		out := make([]uint64, len(v))
		for i, f := range v {
			out[i] = math.Float64bits(f)
		}
		return out
	}
	same := func(t *testing.T, what string, got, want []float64) {
		t.Helper()
		g, w := bits(got), bits(want)
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("%s[%d] = %v, want %v (bits %x vs %x)", what, i, got[i], want[i], g[i], w[i])
			}
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := min(len(tc.x), len(tc.y), len(tc.z))
			x, z := tc.x[:n], tc.z[:n]

			yRef := append([]float64(nil), tc.y[:n]...)
			Axpy(tc.a, x, yRef)
			dRef := Dot(yRef, z)
			y := append([]float64(nil), tc.y[:n]...)
			d := axpyDot(tc.a, x, y, z)
			same(t, "axpyDot y", y, yRef)
			same(t, "axpyDot", []float64{d}, []float64{dRef})

			yRef = append(yRef[:0], tc.y[:n]...)
			Axpy(tc.a, x, yRef)
			nRef := Norm2(yRef)
			y = append(y[:0], tc.y[:n]...)
			nrm := axpyNorm2(tc.a, x, y)
			same(t, "axpyNorm2 y", y, yRef)
			same(t, "axpyNorm2", []float64{nrm}, []float64{nRef})

			for _, s := range []float64{1 / 3.0, 1 / nRef, -1e300, sub} {
				ref := append([]float64(nil), x...)
				Scal(s, ref)
				got := make([]float64, n)
				scaleInto(got, s, x)
				same(t, "scaleInto", got, ref)
			}
		})
	}
}

func TestGMRESWithExactLUPreconditionerOneIteration(t *testing.T) {
	// With an exact-factorisation preconditioner GMRES must converge in a
	// single iteration.
	rng := rand.New(rand.NewSource(31))
	m := randomSparse(rng, 40, 0.2)
	f, err := SparseLUFactor(m, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 40)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, 40)
	res, err := GMRES(AsOperator(m), b, x, GMRESOptions{
		Tol: 1e-12, M: SparseLUPreconditioner{F: f}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 2 {
		t.Fatalf("exact preconditioner took %d iterations", res.Iterations)
	}
}
