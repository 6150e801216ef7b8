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
		scale, ssq = ssqAdd(scale, ssq, v)
	}
	return scale * math.Sqrt(ssq)
}

// ssqAdd folds v into Norm2's scaled sum of squares, which represents
// scale²·ssq.
func ssqAdd(scale, ssq, v float64) (float64, float64) {
	if v == 0 {
		return scale, ssq
	}
	a := math.Abs(v)
	if scale < a {
		r := scale / a
		return a, 1 + ssq*r*r
	}
	r := a / scale
	return scale, ssq + r*r
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

// The fused kernels below serve GMRES's Gram–Schmidt sweep: each does in
// one pass over the vectors what two of the primitives above do in two,
// with every element seeing the same operations in the same order, so the
// results are bit-identical to the unfused sequence.

// axpyDot computes y += a·x and returns ⟨y, z⟩ of the updated y — Axpy(a,
// x, y) followed by Dot(y, z).
func axpyDot(a float64, x, y, z []float64) float64 {
	x, z = x[:len(y)], z[:len(y)]
	s := 0.0
	for i := range y {
		v := y[i] + a*x[i]
		y[i] = v
		s += v * z[i]
	}
	return s
}

// axpyNorm2 computes y += a·x and returns the Euclidean norm of the updated
// y — Axpy(a, x, y) followed by Norm2(y).
func axpyNorm2(a float64, x, y []float64) float64 {
	x = x[:len(y)]
	scale, ssq := 0.0, 1.0
	for i := range y {
		v := y[i] + a*x[i]
		y[i] = v
		scale, ssq = ssqAdd(scale, ssq, v)
	}
	return scale * math.Sqrt(ssq)
}

// scaleInto computes dst = a·src — copy(dst, src) followed by Scal(a, dst).
func scaleInto(dst []float64, a float64, src []float64) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] = src[i] * a
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
