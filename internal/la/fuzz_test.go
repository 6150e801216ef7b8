package la

import (
	"errors"
	"math"
	"slices"
	"testing"
)

// decodeSparse turns fuzz bytes into a small square matrix and a pivot
// tolerance: byte 0 picks n ≤ 24, byte 1 the tolerance, and every further
// 4-byte group one entry (row, column, mantissa, binary exponent). Repeated
// positions are summed, and zero values stay in the pattern.
func decodeSparse(data []byte) (*CSR, float64) {
	if len(data) < 2 {
		return nil, 0
	}
	n := int(data[0]) % 25
	tol := [...]float64{0.001, 0.1, 1}[int(data[1])%3]
	tr := NewTriplet(n, n)
	if n == 0 {
		return tr.Compress(), tol
	}
	for g := data[2:]; len(g) >= 4 && len(tr.V) < 256; g = g[4:] {
		v := math.Ldexp(float64(int8(g[2])), int(g[3]%33)-16)
		tr.Append(int(g[0])%n, int(g[1])%n, v)
	}
	return tr.Compress(), tol
}

// luGrowth is ‖|L||U|‖∞ / ‖A‖∞, the growth that scales LU's backward error
// bound |ΔA| ≤ γ₃ₙ|L||U| (at least 1).
func luGrowth(f *SparseLU, normA float64) float64 {
	u := make([]float64, f.n) // row sums of |U|
	for p, r := range f.ui {
		u[r] += math.Abs(f.ux[p])
	}
	w := make([]float64, f.n) // |L|·u
	for j := 0; j < f.n; j++ {
		for p := f.lp[j]; p < f.lp[j+1]; p++ {
			w[f.li[p]] += math.Abs(f.lx[p]) * u[j]
		}
	}
	g := 0.0
	for _, v := range w {
		g = math.Max(g, v)
	}
	if normA == 0 {
		return 1
	}
	return math.Max(1, g/normA)
}

func allFinite(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// secondValues derives another value set for the same pattern from the
// fuzz input's last byte: an even byte scales every value by one power of
// two, which keeps every pivot choice; an odd one adds an input-derived
// offset to each value, which may move them.
func secondValues(val []float64, data []byte) []float64 {
	out := slices.Clone(val)
	s := data[len(data)-1]
	for p := range out {
		if s&1 == 0 {
			out[p] = math.Ldexp(out[p], int(s%7)-3)
		} else {
			out[p] += math.Ldexp(float64(int8(data[p%len(data)])), int(s%9)-8)
		}
	}
	return out
}

// FuzzSparseLU drives the ordered sparse LU with arbitrary small matrices. It
// must never panic, and a failed factorisation must say the matrix is
// singular. Factoring through the symbolic table must give the uncached
// factorisation bit for bit, or its error, both for the input's values and
// for a second value set on the same pattern, which the first factor's
// analysis serves. On success the solve must be backward stable — its
// residual within a few n·ε of ‖A‖‖x‖+‖b‖, scaled by the factorisation's own
// growth — and a Refactor on the same values must reproduce the solution bit
// for bit. A numerically singular matrix that slips past the exact-zero
// pivot test may give a non-finite solution; only finite solutions are
// checked.
func FuzzSparseLU(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add([]byte{1, 0, 0, 0, 3, 16})
	// 2×2 with a zero diagonal: [[0 1] [1 0]].
	f.Add([]byte{2, 0, 0, 1, 1, 16, 1, 0, 1, 16})
	// 3×3 diagonally dominant tridiagonal, one entry given twice.
	f.Add([]byte{3, 1, 0, 0, 4, 16, 1, 1, 4, 16, 2, 2, 4, 16, 0, 1, 255, 16, 1, 0, 255, 16, 1, 2, 255, 16, 2, 1, 255, 16, 2, 2, 1, 16})
	// Structurally singular: an empty column.
	f.Add([]byte{3, 2, 0, 0, 1, 16, 1, 0, 1, 16, 2, 2, 1, 16})
	// Numerically singular: rank one.
	f.Add([]byte{2, 2, 0, 0, 1, 16, 0, 1, 2, 16, 1, 0, 2, 16, 1, 1, 4, 16})
	// Wide value range with a small diagonal the threshold pivot may keep.
	f.Add([]byte{4, 0, 0, 0, 1, 0, 0, 3, 100, 32, 1, 1, 7, 20, 3, 0, 50, 30, 2, 2, 9, 10, 3, 3, 1, 16, 1, 2, 3, 16, 2, 1, 5, 16})

	f.Fuzz(func(t *testing.T, data []byte) {
		a, tol := decodeSparse(data)
		if a == nil {
			return
		}
		n := a.Rows
		checkAgainstFresh(t, "input values", a, tol)
		checkAgainstFresh(t, "second values", withValues(a, secondValues(a.Val, data)), tol)
		lu, err := SparseLUFactor(a, tol)
		if err != nil {
			if !errors.Is(err, ErrSingular) {
				t.Fatalf("factor failed without ErrSingular: %v", err)
			}
			return
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = float64(i%5) - 1.5
		}
		x := make([]float64, n)
		lu.Solve(b, x)
		if !allFinite(x) {
			return
		}
		r := make([]float64, n)
		a.MulVec(x, r)
		normA, normX, normB, normR := 0.0, NormInf(x), NormInf(b), 0.0
		for i := 0; i < n; i++ {
			row := 0.0
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				row += math.Abs(a.Val[k])
			}
			normA = math.Max(normA, row)
			normR = math.Max(normR, math.Abs(r[i]-b[i]))
		}
		eps := math.Nextafter(1, 2) - 1
		bound := 8 * float64(3*n+1) * eps * (luGrowth(lu, normA)*normA*normX + normB)
		if normR > bound {
			t.Fatalf("n=%d tol=%g: residual %.3e exceeds backward-error bound %.3e", n, tol, normR, bound)
		}

		if err := lu.Refactor(a); err != nil {
			if !errors.Is(err, ErrSingular) {
				t.Fatalf("same-value refactor failed without ErrSingular: %v", err)
			}
			return
		}
		x2 := make([]float64, n)
		lu.Solve(b, x2)
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(x2[i]) {
				t.Fatalf("same-value refactor: x[%d] = %v, factor gave %v", i, x2[i], x[i])
			}
		}
	})
}

// diagPrec is the Jacobi preconditioner z = r/d, with 1 for a zero diagonal.
type diagPrec []float64

func (d diagPrec) Precondition(r, z []float64) {
	for i := range r {
		z[i] = r[i] / d[i]
	}
}

// FuzzGMRES drives restarted GMRES with small nonsymmetric matrices from
// decodeSparse; byte 1 also picks the tolerance, the restart length and
// whether a diagonal preconditioner is used. GMRES must never panic, its x
// must stay finite, and unless it returns an error the true relative
// residual ‖b − A·x‖₂/‖b‖₂, recomputed here, must meet the tolerance.
func FuzzGMRES(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add([]byte{1, 4, 0, 0, 3, 16})
	// 2×2 with a zero diagonal: [[0 1] [1 0]], restart 1.
	f.Add([]byte{2, 8, 0, 1, 1, 16, 1, 0, 1, 16})
	// 3×3 nonsymmetric tridiagonal, preconditioned.
	f.Add([]byte{3, 4, 0, 0, 4, 16, 1, 1, 4, 16, 2, 2, 4, 16, 0, 1, 255, 16, 1, 2, 7, 16, 2, 1, 200, 16})
	// Structurally singular: an empty column.
	f.Add([]byte{3, 1, 0, 0, 1, 16, 1, 0, 1, 16, 2, 2, 1, 16})
	// Numerically singular: rank one, preconditioned.
	f.Add([]byte{2, 6, 0, 0, 1, 16, 0, 1, 2, 16, 1, 0, 2, 16, 1, 1, 4, 16})
	// Wide value range, restart 5.
	f.Add([]byte{4, 27, 0, 0, 1, 0, 0, 3, 100, 32, 1, 1, 7, 20, 3, 0, 50, 30, 2, 2, 9, 10, 3, 3, 1, 16, 1, 2, 3, 16, 2, 1, 5, 16})

	f.Fuzz(func(t *testing.T, data []byte) {
		a, _ := decodeSparse(data)
		if a == nil || a.Rows == 0 {
			return
		}
		n := a.Rows
		opt := GMRESOptions{
			Tol:     [...]float64{1e-10, 1e-6, 1e-2, 0.5}[data[1]%4],
			Restart: [...]int{0, 1, 2, 5}[data[1]>>3%4],
		}
		if data[1]&4 != 0 {
			d := make(diagPrec, n)
			for i := range d {
				d[i] = 1
			}
			for i, k := range a.DiagIndex() {
				if k >= 0 && a.Val[k] != 0 {
					d[i] = a.Val[k]
				}
			}
			opt.M = d
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = float64(i%5) - 1.5
		}
		x := make([]float64, n)
		res, err := GMRES(AsOperator(a), b, x, opt)
		if !allFinite(x) {
			t.Fatalf("non-finite x %v (err %v)", x, err)
		}
		if err != nil {
			return
		}
		r := make([]float64, n)
		a.MulVec(x, r)
		for i := range r {
			r[i] = b[i] - r[i]
		}
		if rel := Norm2(r) / Norm2(b); !(rel <= opt.Tol*(1+1e-6)) {
			t.Fatalf("converged (reported %.3g) at true relative residual %.3g, tolerance %g", res.Residual, rel, opt.Tol)
		}
	})
}
