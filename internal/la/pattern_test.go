package la

import (
	"math"
	"math/rand"
	"testing"
)

// randomTriplet stamps nnz random entries (duplicates likely) into an n×n
// triplet plus a guaranteed nonsingular diagonal.
func randomTriplet(rng *rand.Rand, n, nnz int) *Triplet {
	tr := NewTriplet(n, n)
	for i := 0; i < n; i++ {
		tr.Append(i, i, 4+rng.Float64())
	}
	for k := 0; k < nnz; k++ {
		tr.Append(rng.Intn(n), rng.Intn(n), rng.NormFloat64())
	}
	return tr
}

func csrEqual(t *testing.T, a, b *CSR, tol float64) {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols || a.NNZ() != b.NNZ() {
		t.Fatalf("shape/nnz mismatch: %dx%d/%d vs %dx%d/%d",
			a.Rows, a.Cols, a.NNZ(), b.Rows, b.Cols, b.NNZ())
	}
	for i := 0; i < a.Rows; i++ {
		if a.RowPtr[i+1] != b.RowPtr[i+1] {
			t.Fatalf("row %d: rowptr %d vs %d", i, a.RowPtr[i+1], b.RowPtr[i+1])
		}
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if a.ColIdx[k] != b.ColIdx[k] {
				t.Fatalf("row %d slot %d: col %d vs %d", i, k, a.ColIdx[k], b.ColIdx[k])
			}
			if math.Abs(a.Val[k]-b.Val[k]) > tol {
				t.Fatalf("row %d col %d: val %v vs %v", i, a.ColIdx[k], a.Val[k], b.Val[k])
			}
		}
	}
}

// TestSparseLURefactor: a numeric-only refactorisation on a new matrix with
// the same pattern must solve as accurately as a fresh factorisation.
func TestSparseLURefactor(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 40
	tr := randomTriplet(rng, n, 300)
	a := tr.Compress()
	f, err := SparseLUFactor(a, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	check := func(m *CSR, f *SparseLU) {
		t.Helper()
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		m.MulVec(xTrue, b)
		x := make([]float64, n)
		f.Solve(b, x)
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-8 {
				t.Fatalf("solve error at %d: %v vs %v", i, x[i], xTrue[i])
			}
		}
	}
	check(a, f)
	// Restamp the same pattern with new values (in place, the hot path).
	for k := range a.Val {
		a.Val[k] *= 1 + 0.3*rng.Float64()
	}
	for i := 0; i < n; i++ { // keep diagonal dominance-ish
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if a.ColIdx[k] == i {
				a.Val[k] += 2
			}
		}
	}
	if !f.SamePattern(a) {
		t.Fatal("in-place restamp should preserve pattern identity")
	}
	if err := f.Refactor(a); err != nil {
		t.Fatal(err)
	}
	check(a, f)
	// A different pattern must be refused.
	tr2 := randomTriplet(rng, n, 280)
	b2 := tr2.Compress()
	if f.SamePattern(b2) {
		t.Skip("random patterns collided; extremely unlikely")
	}
	if err := f.Refactor(b2); err == nil {
		t.Fatal("refactor accepted a mismatched pattern")
	}
}

// TestSparseLURefactorSingular: a pattern-preserving value change that kills
// a pivot must fail loudly so callers fall back to a full factorisation.
func TestSparseLURefactorSingular(t *testing.T) {
	tr := NewTriplet(2, 2)
	tr.Append(0, 0, 2)
	tr.Append(0, 1, 1)
	tr.Append(1, 0, 1)
	tr.Append(1, 1, 2)
	a := tr.Compress()
	f, err := SparseLUFactor(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Make the matrix exactly singular without touching the pattern.
	a.Val[0], a.Val[1] = 1, 1
	a.Val[2], a.Val[3] = 1, 1
	if err := f.Refactor(a); err == nil {
		t.Fatal("refactor of a singular matrix must fail")
	}
}

// TestSparseLURefactorMatchesFreshFactor compares LU solves after many
// refactor cycles against fresh factorisations on the same values.
func TestSparseLURefactorMatchesFreshFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	n := 30
	tr := randomTriplet(rng, n, 220)
	a := tr.Compress()
	f, err := SparseLUFactor(a, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	x1 := make([]float64, n)
	x2 := make([]float64, n)
	for cycle := 0; cycle < 5; cycle++ {
		for k := range a.Val {
			a.Val[k] += 0.05 * rng.NormFloat64()
		}
		if err := f.Refactor(a); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		fresh, err := SparseLUFactor(a, 0.001)
		if err != nil {
			t.Fatalf("cycle %d fresh: %v", cycle, err)
		}
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		f.Solve(b, x1)
		fresh.Solve(b, x2)
		for i := range x1 {
			if math.Abs(x1[i]-x2[i]) > 1e-8*(1+math.Abs(x2[i])) {
				t.Fatalf("cycle %d: refactored solve differs at %d: %v vs %v", cycle, i, x1[i], x2[i])
			}
		}
	}
}
