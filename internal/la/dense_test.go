package la

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Max(math.Abs(a), math.Abs(b)))
}

func randomDense(rng *rand.Rand, n int) *Dense {
	m := NewDense(n, n)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	// Make it comfortably nonsingular.
	for i := 0; i < n; i++ {
		m.Add(i, i, float64(n))
	}
	return m
}

func TestDenseAtSetAdd(t *testing.T) {
	m := NewDense(3, 4)
	m.Set(1, 2, 5)
	if got := m.At(1, 2); got != 5 {
		t.Fatalf("At(1,2) = %v, want 5", got)
	}
	m.Add(1, 2, 2.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("after Add, At(1,2) = %v, want 7.5", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Fatalf("untouched entry = %v, want 0", got)
	}
}

func TestDenseMulVec(t *testing.T) {
	m := DenseFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	y := make([]float64, 3)
	m.MulVec([]float64{1, -1}, y)
	want := []float64{-1, -1, -1}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("MulVec[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestDenseLUSolveKnown(t *testing.T) {
	a := DenseFromRows([][]float64{
		{2, 1, 1},
		{4, -6, 0},
		{-2, 7, 2},
	})
	b := []float64{5, -2, 9}
	x, err := SolveDense(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1, 2}
	for i := range want {
		if !almostEqual(x[i], want[i], 1e-12) {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestDenseLUSingular(t *testing.T) {
	a := DenseFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := DenseLU(a); err == nil {
		t.Fatal("expected ErrSingular for rank-deficient matrix")
	}
}

func TestDenseLUNonSquare(t *testing.T) {
	if _, err := DenseLU(NewDense(2, 3)); err == nil {
		t.Fatal("expected shape error for non-square LU")
	}
}

func TestDenseLUResidualProperty(t *testing.T) {
	// Property: for random diagonally boosted A and random b, ‖A·x−b‖ is tiny.
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		a := randomDense(r, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x, err := SolveDense(a, b)
		if err != nil {
			return false
		}
		res := make([]float64, n)
		a.MulVec(x, res)
		Axpy(-1, b, res)
		return Norm2(res) < 1e-9*(1+Norm2(b))
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestVecHelpers(t *testing.T) {
	x := []float64{3, 4}
	if Norm2(x) != 5 {
		t.Fatalf("Norm2 = %v", Norm2(x))
	}
	if NormInf(x) != 4 {
		t.Fatalf("NormInf = %v", NormInf(x))
	}
	if Dot(x, []float64{1, 1}) != 7 {
		t.Fatalf("Dot = %v", Dot(x, []float64{1, 1}))
	}
	y := []float64{1, 1}
	Axpy(2, x, y)
	if y[0] != 7 || y[1] != 9 {
		t.Fatalf("Axpy = %v", y)
	}
	z := make([]float64, 2)
	Fill(z, -1)
	if z[0] != -1 || z[1] != -1 {
		t.Fatalf("Fill = %v", z)
	}
}

func TestWeightedMaxNorm(t *testing.T) {
	dx := []float64{1e-9, 2e-6}
	ref := []float64{1, 1}
	// abstol 1e-12, reltol 1e-6: second component ratio = 2e-6/(1e-12+1e-6) ≈ 2.
	v := WeightedMaxNorm(dx, ref, 1e-12, 1e-6)
	if v < 1.9 || v > 2.1 {
		t.Fatalf("WeightedMaxNorm = %v, want ≈2", v)
	}
	if WeightedMaxNorm([]float64{0, 0}, ref, 1e-12, 1e-6) != 0 {
		t.Fatal("zero vector should have zero weighted norm")
	}
}

func TestNorm2OverflowSafe(t *testing.T) {
	x := []float64{1e200, 1e200}
	got := Norm2(x)
	want := 1e200 * math.Sqrt2
	if math.IsInf(got, 0) || !almostEqual(got, want, 1e-12) {
		t.Fatalf("Norm2 overflow-unsafe: got %v want %v", got, want)
	}
}
