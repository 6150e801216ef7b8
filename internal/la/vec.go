package la

import "math"

// Vector helpers shared across the solvers. All operate on raw []float64 to
// keep the Newton and Krylov loops allocation-free.

// Dot returns ⟨x, y⟩.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(ErrShape)
	}
	s := 0.0
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm with overflow-safe scaling.
func Norm2(x []float64) float64 {
	scale, ssq := 0.0, 1.0
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// NormInf returns max |x_i|, or NaN when any x_i is NaN.
func NormInf(x []float64) float64 {
	mx := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > mx {
			mx = a
		} else if math.IsNaN(a) {
			return a
		}
	}
	return mx
}

// Axpy computes y += a·x.
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic(ErrShape)
	}
	for i, v := range x {
		y[i] += a * v
	}
}

// Scal multiplies x by a in place.
func Scal(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}

// CopyVec copies src into dst (lengths must match).
func CopyVec(dst, src []float64) {
	if len(dst) != len(src) {
		panic(ErrShape)
	}
	copy(dst, src)
}

// Sub computes z = x − y.
func Sub(x, y, z []float64) {
	if len(x) != len(y) || len(x) != len(z) {
		panic(ErrShape)
	}
	for i := range x {
		z[i] = x[i] - y[i]
	}
}

// Fill sets every entry of x to v.
func Fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}

// WeightedMaxNorm returns max_i |x_i| / (abstol + reltol·|ref_i|), the SPICE
// style convergence norm: a value ≤ 1 means every component meets tolerance.
// It is NaN when any ratio is NaN.
func WeightedMaxNorm(x, ref []float64, abstol, reltol float64) float64 {
	mx := 0.0
	for i, v := range x {
		den := abstol
		if ref != nil {
			den += reltol * math.Abs(ref[i])
		}
		if r := math.Abs(v) / den; r > mx {
			mx = r
		} else if math.IsNaN(r) {
			return r
		}
	}
	return mx
}
