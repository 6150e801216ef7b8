package core

import (
	"fmt"
	"math"
)

// Surface returns the multi-time surface of one circuit unknown as
// values[i][j] = x̂_k(t1_i, t2_j) — the raw material of the paper's Figs 3
// and 5.
func (s *Solution) Surface(k int) [][]float64 {
	out := make([][]float64, s.N1)
	for i := range out {
		out[i] = make([]float64, s.N2)
		for j := 0; j < s.N2; j++ {
			out[i][j] = s.X[s.index(i, j, k)]
		}
	}
	return out
}

// T1Axis returns the fast-time grid coordinates in seconds.
func (s *Solution) T1Axis() []float64 {
	h := s.Shear.T1() / float64(s.N1)
	out := make([]float64, s.N1)
	for i := range out {
		out[i] = float64(i) * h
	}
	return out
}

// T2Axis returns the difference-frequency grid coordinates in seconds.
func (s *Solution) T2Axis() []float64 {
	h := s.Shear.Td() / float64(s.N2)
	out := make([]float64, s.N2)
	for j := range out {
		out[j] = float64(j) * h
	}
	return out
}

// BasebandMean returns the t1-average of x̂_k(·, t2_j) — the baseband content
// after ideal filtering of the fast variations.
func (s *Solution) BasebandMean(k int) []float64 {
	out := make([]float64, s.N2)
	for j := 0; j < s.N2; j++ {
		sum := 0.0
		for i := 0; i < s.N1; i++ {
			sum += s.X[s.index(i, j, k)]
		}
		out[j] = sum / float64(s.N1)
	}
	return out
}

// BasebandRipple returns max−min over t1 at each t2 — a measure of how much
// fast ripple rides on the envelope.
func (s *Solution) BasebandRipple(k int) []float64 {
	out := make([]float64, s.N2)
	for j := 0; j < s.N2; j++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < s.N1; i++ {
			v := s.X[s.index(i, j, k)]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		out[j] = hi - lo
	}
	return out
}

// OneTime evaluates x_k(t) = x̂_k(t mod T1, t mod Td) by bilinear
// interpolation on the periodic grid — the diagonal reconstruction that
// recovers the ordinary single-time waveform (paper Fig. 6).
func (s *Solution) OneTime(k int, t float64) float64 {
	t1 := math.Mod(t, s.Shear.T1())
	if t1 < 0 {
		t1 += s.Shear.T1()
	}
	t2 := math.Mod(t, s.Shear.Td())
	if t2 < 0 {
		t2 += s.Shear.Td()
	}
	h1 := s.Shear.T1() / float64(s.N1)
	h2 := s.Shear.Td() / float64(s.N2)
	u := t1 / h1
	v := t2 / h2
	i0 := int(math.Floor(u)) % s.N1
	j0 := int(math.Floor(v)) % s.N2
	du := u - math.Floor(u)
	dv := v - math.Floor(v)
	i1 := (i0 + 1) % s.N1
	j1 := (j0 + 1) % s.N2
	a := s.X[s.index(i0, j0, k)]
	b := s.X[s.index(i1, j0, k)]
	c := s.X[s.index(i0, j1, k)]
	d := s.X[s.index(i1, j1, k)]
	return a*(1-du)*(1-dv) + b*du*(1-dv) + c*(1-du)*dv + d*du*dv
}

// ReconstructOneTime samples the diagonal reconstruction uniformly over
// [t0, t1] with npts points, returning times and values.
func (s *Solution) ReconstructOneTime(k int, t0, t1 float64, npts int) ([]float64, []float64) {
	if npts < 2 {
		npts = 2
	}
	ts := make([]float64, npts)
	vs := make([]float64, npts)
	for p := 0; p < npts; p++ {
		tt := t0 + (t1-t0)*float64(p)/float64(npts-1)
		ts[p] = tt
		vs[p] = s.OneTime(k, tt)
	}
	return ts, vs
}

// Differential returns the element-wise difference of two unknowns' surfaces
// (e.g. the differential output of the balanced mixer).
func (s *Solution) Differential(kPlus, kMinus int) [][]float64 {
	out := make([][]float64, s.N1)
	for i := range out {
		out[i] = make([]float64, s.N2)
		for j := 0; j < s.N2; j++ {
			out[i][j] = s.X[s.index(i, j, kPlus)] - s.X[s.index(i, j, kMinus)]
		}
	}
	return out
}

// DifferentialBaseband returns the t1-average of a differential pair along
// t2.
func (s *Solution) DifferentialBaseband(kPlus, kMinus int) []float64 {
	p := s.BasebandMean(kPlus)
	m := s.BasebandMean(kMinus)
	out := make([]float64, len(p))
	for j := range out {
		out[j] = p[j] - m[j]
	}
	return out
}

// ResidualCheck re-evaluates the MPDE residual ∞-norm at the stored solution
// — a cheap invariant for tests and sanity checks.
func (s *Solution) ResidualCheck(opt Options) (float64, error) {
	if opt.N1 == 0 {
		opt.N1 = s.N1
	}
	if opt.N2 == 0 {
		opt.N2 = s.N2
	}
	opt.Shear = s.Shear
	if opt.DiffT1 == 0 {
		opt.DiffT1 = Order1
	}
	if opt.DiffT2 == 0 {
		opt.DiffT2 = Order1
	}
	if opt.N1 != s.N1 || opt.N2 != s.N2 {
		return 0, fmt.Errorf("core: ResidualCheck grid %dx%d does not match solution %dx%d",
			opt.N1, opt.N2, s.N1, s.N2)
	}
	asm := newResidualAssembler(s.Ckt, opt)
	r, _, err := asm.assemble(s.X, 1, false)
	if err != nil {
		return 0, err
	}
	mx := 0.0
	for _, v := range r {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx, nil
}
