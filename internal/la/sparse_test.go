package la

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomSparse(rng *rand.Rand, n int, density float64) *CSR {
	tr := NewTriplet(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() > density {
				continue
			}
			v := rng.NormFloat64()
			if i == j {
				v += float64(n) // diagonal dominance
			}
			tr.Append(i, j, v)
		}
	}
	return tr.Compress()
}

func TestTripletCompressSumsDuplicates(t *testing.T) {
	tr := NewTriplet(2, 2)
	tr.Append(0, 0, 1)
	tr.Append(0, 0, 2)
	tr.Append(1, 0, 5)
	tr.Append(0, 1, -1)
	m := tr.Compress()
	if m.At(0, 0) != 3 {
		t.Fatalf("duplicate sum = %v, want 3", m.At(0, 0))
	}
	if m.At(1, 0) != 5 || m.At(0, 1) != -1 || m.At(1, 1) != 0 {
		t.Fatalf("unexpected entries: %v", m.Dense())
	}
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", m.NNZ())
	}
}

func TestTripletResetKeepsCapacity(t *testing.T) {
	tr := NewTriplet(4, 4)
	tr.Append(0, 0, 1)
	tr.Reset()
	if len(tr.I) != 0 {
		t.Fatal("Reset should empty the builder")
	}
	tr.Append(1, 1, 2)
	if got := tr.Compress().At(1, 1); got != 2 {
		t.Fatalf("after reset, At(1,1)=%v", got)
	}
}

func TestTripletAppendOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range append")
		}
	}()
	NewTriplet(2, 2).Append(2, 0, 1)
}

func TestCSRMulVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := randomSparse(rng, 25, 0.2)
	d := m.Dense()
	x := make([]float64, 25)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	ys := make([]float64, 25)
	yd := make([]float64, 25)
	m.MulVec(x, ys)
	d.MulVec(x, yd)
	for i := range ys {
		if !almostEqual(ys[i], yd[i], 1e-13) {
			t.Fatalf("sparse/dense MulVec mismatch at %d: %v vs %v", i, ys[i], yd[i])
		}
	}
	// MulVecAdd path
	y2 := append([]float64(nil), ys...)
	m.MulVecAdd(-1, x, y2)
	for i := range y2 {
		if math.Abs(y2[i]) > 1e-12*(1+math.Abs(ys[i])) {
			t.Fatalf("MulVecAdd(-1) should cancel: y2[%d]=%v", i, y2[i])
		}
	}
}

func TestCSRTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := randomSparse(rng, 17, 0.15)
	tt := m.Transpose().Transpose()
	dm, dt := m.Dense(), tt.Dense()
	for i := range dm.Data {
		if dm.Data[i] != dt.Data[i] {
			t.Fatal("transpose twice != original")
		}
	}
}

func TestCSRDiagIndex(t *testing.T) {
	tr := NewTriplet(3, 3)
	tr.Append(0, 0, 1)
	tr.Append(1, 2, 1) // row 1 has no diagonal
	tr.Append(2, 2, 4)
	m := tr.Compress()
	idx := m.DiagIndex()
	if idx[0] < 0 || idx[2] < 0 {
		t.Fatal("present diagonals not found")
	}
	if idx[1] != -1 {
		t.Fatal("missing diagonal should be -1")
	}
	if m.Val[idx[2]] != 4 {
		t.Fatalf("diag value = %v, want 4", m.Val[idx[2]])
	}
}

func TestSparseLUMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(30)
		m := randomSparse(rng, n, 0.25)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		f, err := SparseLUFactor(m, 0.1)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		xs := make([]float64, n)
		f.Solve(b, xs)
		xd, err := SolveDense(m.Dense(), b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range xs {
			if !almostEqual(xs[i], xd[i], 1e-8) {
				t.Fatalf("trial %d: x[%d] sparse %v dense %v", trial, i, xs[i], xd[i])
			}
		}
	}
}

func TestSparseLUSingular(t *testing.T) {
	tr := NewTriplet(2, 2)
	tr.Append(0, 0, 1)
	tr.Append(0, 1, 2)
	tr.Append(1, 0, 2)
	tr.Append(1, 1, 4)
	if _, err := SparseLUFactor(tr.Compress(), 1); err == nil {
		t.Fatal("expected singular error")
	}
}

func TestSparseLUPermutedIdentity(t *testing.T) {
	// A pure permutation matrix exercises pivoting with no arithmetic.
	n := 6
	tr := NewTriplet(n, n)
	for i := 0; i < n; i++ {
		tr.Append(i, (i+3)%n, 1)
	}
	m := tr.Compress()
	f, err := SparseLUFactor(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{1, 2, 3, 4, 5, 6}
	x := make([]float64, n)
	f.Solve(b, x)
	res := make([]float64, n)
	m.MulVec(x, res)
	for i := range res {
		if !almostEqual(res[i], b[i], 1e-14) {
			t.Fatalf("residual at %d: %v vs %v", i, res[i], b[i])
		}
	}
}

func TestSparseLUResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		m := randomSparse(rng, n, 0.3)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		lu, err := SparseLUFactor(m, 0.001)
		if err != nil {
			return false
		}
		x := make([]float64, n)
		lu.Solve(b, x)
		r := make([]float64, n)
		m.MulVec(x, r)
		Axpy(-1, b, r)
		return Norm2(r) < 1e-8*(1+Norm2(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGMRESSolvesSparseSystem(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 60
	m := randomSparse(rng, n, 0.1)
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	res, err := GMRES(AsOperator(m), b, x, GMRESOptions{Tol: 1e-12})
	if err != nil {
		t.Fatalf("GMRES failed: %v (res %+v)", err, res)
	}
	r := make([]float64, n)
	m.MulVec(x, r)
	Axpy(-1, b, r)
	if Norm2(r) > 1e-9*(1+Norm2(b)) {
		t.Fatalf("GMRES residual too large: %v", Norm2(r))
	}
}

func TestGMRESZeroRHS(t *testing.T) {
	m := randomSparse(rand.New(rand.NewSource(1)), 10, 0.3)
	x := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	res, err := GMRES(AsOperator(m), make([]float64, 10), x, GMRESOptions{})
	if err != nil || !res.Converged {
		t.Fatalf("zero rhs should converge instantly: %v", err)
	}
	if NormInf(x) != 0 {
		t.Fatal("solution of A·x=0 should be 0")
	}
}

func TestGMRESNonConvergenceReported(t *testing.T) {
	// A rotation-like badly conditioned operator with a tiny iteration cap.
	tr := NewTriplet(4, 4)
	tr.Append(0, 1, 1)
	tr.Append(1, 2, 1)
	tr.Append(2, 3, 1)
	tr.Append(3, 0, 1e-8)
	m := tr.Compress()
	b := []float64{1, 1, 1, 1}
	x := make([]float64, 4)
	_, err := GMRES(AsOperator(m), b, x, GMRESOptions{MaxIter: 2, Restart: 2, Tol: 1e-15})
	if err == nil {
		t.Fatal("expected ErrNoConvergence with MaxIter=2")
	}
}

func TestCDenseLUSolve(t *testing.T) {
	a := NewCDense(2, 2)
	a.Set(0, 0, complex(0, 1))
	a.Set(0, 1, 1)
	a.Set(1, 0, 2)
	a.Set(1, 1, complex(0, -1))
	f, err := CDenseLU(a)
	if err != nil {
		t.Fatal(err)
	}
	b := []complex128{complex(1, 1), complex(0, 2)}
	x := make([]complex128, 2)
	f.Solve(b, x)
	// Residual check.
	r := make([]complex128, 2)
	a.MulVec(x, r)
	for i := range r {
		if d := r[i] - b[i]; real(d)*real(d)+imag(d)*imag(d) > 1e-24 {
			t.Fatalf("complex residual %v", d)
		}
	}
}

func TestCDenseLUSingular(t *testing.T) {
	a := NewCDense(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := CDenseLU(a); err == nil {
		t.Fatal("expected singular complex matrix error")
	}
}

func TestCNorms(t *testing.T) {
	x := []complex128{complex(3, 4), 0}
	if CNorm2(x) != 5 {
		t.Fatalf("CNorm2 = %v", CNorm2(x))
	}
	if CNormInf(x) != 5 {
		t.Fatalf("CNormInf = %v", CNormInf(x))
	}
}
