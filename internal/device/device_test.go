package device

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/la"
)

// newStamp builds a Stamp over n unknowns at iterate x.
func newStamp(n int, x []float64) *Stamp {
	return &Stamp{
		X: x,
		Q: make([]float64, n), F: make([]float64, n), B: make([]float64, n),
		C: la.NewStampMap(n, n), G: la.NewStampMap(n, n),
		Jac: true, Ctx: FullDrive(),
	}
}

// jacOf numerically differentiates the stamped F residual of a device.
func finiteDiffG(dev Device, n int, x []float64) *la.Dense {
	const h = 1e-7
	base := make([]float64, n)
	st := newStamp(n, x)
	st.Jac = false
	dev.Stamp(st)
	copy(base, st.F)
	out := la.NewDense(n, n)
	for j := 0; j < n; j++ {
		xp := append([]float64(nil), x...)
		xp[j] += h
		st2 := newStamp(n, xp)
		st2.Jac = false
		dev.Stamp(st2)
		for i := 0; i < n; i++ {
			out.Set(i, j, (st2.F[i]-base[i])/h)
		}
	}
	return out
}

func finiteDiffC(dev Device, n int, x []float64) *la.Dense {
	const h = 1e-7
	base := make([]float64, n)
	st := newStamp(n, x)
	st.Jac = false
	dev.Stamp(st)
	copy(base, st.Q)
	out := la.NewDense(n, n)
	for j := 0; j < n; j++ {
		xp := append([]float64(nil), x...)
		xp[j] += h
		st2 := newStamp(n, xp)
		st2.Jac = false
		dev.Stamp(st2)
		for i := 0; i < n; i++ {
			out.Set(i, j, (st2.Q[i]-base[i])/h)
		}
	}
	return out
}

// stampJac stamps dev once at x and returns its compiled C and G.
func stampJac(dev Device, n int, x []float64) (c, g *la.CSR) {
	st := newStamp(n, x)
	c, g = new(la.CSR), new(la.CSR)
	st.C.Begin(c, true)
	st.G.Begin(g, true)
	dev.Stamp(st)
	st.C.End()
	st.G.End()
	return c, g
}

func analyticG(dev Device, n int, x []float64) *la.Dense {
	_, g := stampJac(dev, n, x)
	return g.Dense()
}

func analyticC(dev Device, n int, x []float64) *la.Dense {
	c, _ := stampJac(dev, n, x)
	return c.Dense()
}

func assertJacobianConsistent(t *testing.T, dev Device, n int, x []float64, tol float64) {
	t.Helper()
	ag, ng := analyticG(dev, n, x), finiteDiffG(dev, n, x)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d := math.Abs(ag.At(i, j) - ng.At(i, j))
			scale := 1 + math.Abs(ng.At(i, j))
			if d/scale > tol {
				t.Fatalf("%s: G(%d,%d) analytic %v vs numeric %v", dev.Name(), i, j, ag.At(i, j), ng.At(i, j))
			}
		}
	}
	ac, nc := analyticC(dev, n, x), finiteDiffC(dev, n, x)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d := math.Abs(ac.At(i, j) - nc.At(i, j))
			scale := 1 + math.Abs(nc.At(i, j))
			if d/scale > tol {
				t.Fatalf("%s: C(%d,%d) analytic %v vs numeric %v", dev.Name(), i, j, ac.At(i, j), nc.At(i, j))
			}
		}
	}
}

func TestResistorStamp(t *testing.T) {
	r := &Resistor{Inst: "R1", P: 0, N: 1, R: 100}
	x := []float64{3, 1}
	st := newStamp(2, x)
	r.Stamp(st)
	if math.Abs(st.F[0]-0.02) > 1e-15 || math.Abs(st.F[1]+0.02) > 1e-15 {
		t.Fatalf("resistor currents: %v", st.F)
	}
	assertJacobianConsistent(t, r, 2, x, 1e-5)
}

func TestResistorToGround(t *testing.T) {
	r := &Resistor{Inst: "R1", P: 0, N: -1, R: 50}
	x := []float64{5}
	st := newStamp(1, x)
	r.Stamp(st)
	if math.Abs(st.F[0]-0.1) > 1e-15 {
		t.Fatalf("resistor to ground current: %v", st.F[0])
	}
}

func TestCapacitorStamp(t *testing.T) {
	c := &Capacitor{Inst: "C1", P: 0, N: 1, C: 1e-9}
	x := []float64{2, -1}
	st := newStamp(2, x)
	c.Stamp(st)
	if math.Abs(st.Q[0]-3e-9) > 1e-21 {
		t.Fatalf("capacitor charge: %v", st.Q[0])
	}
	assertJacobianConsistent(t, c, 2, x, 1e-5)
}

func TestInductorStamp(t *testing.T) {
	l := &Inductor{Inst: "L1", P: 0, N: 1, L: 1e-6}
	l.SetBranch(2)
	x := []float64{1, 0, 0.5} // branch current 0.5 A
	st := newStamp(3, x)
	l.Stamp(st)
	if math.Abs(st.F[0]-0.5) > 1e-15 || math.Abs(st.F[1]+0.5) > 1e-15 {
		t.Fatalf("inductor KCL: %v", st.F)
	}
	if math.Abs(st.Q[2]-0.5e-6) > 1e-18 {
		t.Fatalf("inductor flux: %v", st.Q[2])
	}
	if math.Abs(st.F[2]+1) > 1e-15 { // −(v0−v1) = −1
		t.Fatalf("inductor branch eq: %v", st.F[2])
	}
	assertJacobianConsistent(t, l, 3, x, 1e-5)
}

func TestVSourceStamp(t *testing.T) {
	v := &VSource{Inst: "V1", P: 0, N: -1, W: DC(5)}
	v.SetBranch(1)
	x := []float64{4.2, -0.3}
	st := newStamp(2, x)
	v.Stamp(st)
	// KCL gets the branch current; branch equation v(P) − 5 = 0 split into
	// F (v) and B (−5).
	if st.F[0] != -0.3 {
		t.Fatalf("VSource KCL: %v", st.F[0])
	}
	if st.F[1] != 4.2 || st.B[1] != -5 {
		t.Fatalf("VSource branch eq: F=%v B=%v", st.F[1], st.B[1])
	}
}

func TestVSourceLambdaScaling(t *testing.T) {
	v := &VSource{Inst: "V1", P: 0, N: -1, W: DC(5)}
	v.SetBranch(1)
	st := newStamp(2, []float64{0, 0})
	st.Ctx.Lambda = 0.5
	v.Stamp(st)
	if st.B[1] != -2.5 {
		t.Fatalf("lambda scaling: B=%v, want -2.5", st.B[1])
	}
	// SignalOnlyLambda keeps DC at full strength.
	st2 := newStamp(2, []float64{0, 0})
	st2.Ctx.Lambda = 0
	st2.Ctx.SignalOnlyLambda = true
	v.Stamp(st2)
	if st2.B[1] != -5 {
		t.Fatalf("signal-only lambda should not scale DC: B=%v", st2.B[1])
	}
}

func TestISourceStamp(t *testing.T) {
	i := &ISource{Inst: "I1", P: 0, N: 1, W: DC(1e-3)}
	st := newStamp(2, []float64{0, 0})
	i.Stamp(st)
	if st.B[0] != 1e-3 || st.B[1] != -1e-3 {
		t.Fatalf("ISource B: %v", st.B)
	}
}

func TestVCCSStamp(t *testing.T) {
	g := &VCCS{Inst: "G1", P: 0, N: -1, CP: 1, CN: -1, Gm: 1e-3}
	x := []float64{0, 2}
	st := newStamp(2, x)
	g.Stamp(st)
	if math.Abs(st.F[0]-2e-3) > 1e-18 {
		t.Fatalf("VCCS current: %v", st.F[0])
	}
	assertJacobianConsistent(t, g, 2, x, 1e-5)
}

func TestVCVSStamp(t *testing.T) {
	e := &VCVS{Inst: "E1", P: 0, N: -1, CP: 1, CN: -1, Mu: 10}
	e.SetBranch(2)
	x := []float64{3, 0.5, 0.1}
	st := newStamp(3, x)
	e.Stamp(st)
	// Branch eq: v(0) − 10·v(1) = 3 − 5 = −2.
	if math.Abs(st.F[2]+2) > 1e-15 {
		t.Fatalf("VCVS branch eq: %v", st.F[2])
	}
	assertJacobianConsistent(t, e, 3, x, 1e-5)
}

func TestMultiplierStamp(t *testing.T) {
	m := &Multiplier{Inst: "X1", A: 0, B_: 1, N: 2, Gm: 2}
	x := []float64{3, -2, 0}
	st := newStamp(3, x)
	m.Stamp(st)
	if math.Abs(st.F[2]-12) > 1e-15 { // −2·3·(−2) = +12
		t.Fatalf("multiplier current: %v", st.F[2])
	}
	assertJacobianConsistent(t, m, 3, x, 1e-5)
}

func TestDiodeCurrentAndLimiting(t *testing.T) {
	d := &Diode{Inst: "D1", P: 0, N: -1, Is: 1e-14}
	i0, g0 := d.Current(0)
	if i0 != 0 || g0 <= 0 {
		t.Fatalf("diode at 0V: i=%v g=%v", i0, g0)
	}
	i1, _ := d.Current(0.6)
	if i1 < 1e-5 || i1 > 1e-1 {
		t.Fatalf("diode at 0.6V: i=%v out of plausible range", i1)
	}
	// Reverse: saturates at −Is.
	ir, _ := d.Current(-5)
	if math.Abs(ir+1e-14) > 1e-15 {
		t.Fatalf("reverse current: %v", ir)
	}
	// Limiting: enormous forward voltage must not overflow and g continuous.
	ibig, gbig := d.Current(100)
	if math.IsInf(ibig, 0) || math.IsNaN(ibig) || gbig <= 0 {
		t.Fatalf("explim failed: i=%v g=%v", ibig, gbig)
	}
	// Continuity across the limiting knee.
	is, nvt := 1e-14, vt300
	vmax := nvt * math.Log(1e3/is)
	iL, _ := d.Current(vmax - 1e-9)
	iR, _ := d.Current(vmax + 1e-9)
	if math.Abs(iL-iR) > 1e-3*math.Abs(iL) {
		t.Fatalf("current discontinuous at knee: %v vs %v", iL, iR)
	}
}

func TestDiodeJacobian(t *testing.T) {
	d := &Diode{Inst: "D1", P: 0, N: 1, Is: 1e-14, Cj0: 1e-12, Tt: 1e-9}
	for _, v := range [][]float64{{0.3, 0}, {0.55, 0.1}, {-2, 0}, {0.2, -0.2}} {
		assertJacobianConsistent(t, d, 2, v, 2e-4)
	}
}

func TestDiodeChargeContinuityAtFcVj(t *testing.T) {
	d := &Diode{Inst: "D1", P: 0, N: -1, Cj0: 1e-12, Vj: 0.8, Mj: 0.5}
	vf := 0.5 * 0.8
	qL, cL := d.Charge(vf - 1e-9)
	qR, cR := d.Charge(vf + 1e-9)
	if math.Abs(qL-qR) > 1e-20 || math.Abs(cL-cR) > 1e-16 {
		t.Fatalf("junction charge not C¹ at Fc·Vj: q %v/%v c %v/%v", qL, qR, cL, cR)
	}
}

func TestMOSFETSquareLaw(t *testing.T) {
	m := &MOSFET{Inst: "M1", D: 0, G: 1, S: 2, Vt0: 0.5, KP: 2e-4}
	// Saturation: Id = KP/2·(vgs−vt)².
	x := []float64{3, 1.5, 0}
	st := newStamp(3, x)
	st.Jac = false
	m.Stamp(st)
	want := 0.5 * 2e-4 * 1.0 * 1.0
	if math.Abs(st.F[0]-want) > 1e-12 {
		t.Fatalf("sat current = %v, want %v", st.F[0], want)
	}
	if math.Abs(st.F[2]+want) > 1e-12 {
		t.Fatalf("source current = %v, want %v", st.F[2], -want)
	}
}

func TestMOSFETJacobianAllRegions(t *testing.T) {
	m := &MOSFET{Inst: "M1", D: 0, G: 1, S: 2, Vt0: 0.5, KP: 2e-4,
		Lambda: 0.02, Cgs: 1e-14, Cgd: 5e-15}
	cases := [][]float64{
		{2, 1.5, 0},    // sat
		{0.2, 1.5, 0},  // triode
		{2, 0.3, 0},    // off
		{-0.5, 1.5, 0}, // swapped (vds<0): drain acts as source
		{0, 1.5, 0.8},  // swapped triode
	}
	for _, x := range cases {
		assertJacobianConsistent(t, m, 3, x, 2e-4)
	}
}

func TestMOSFETContinuityAcrossVds0(t *testing.T) {
	m := &MOSFET{Inst: "M1", D: 0, G: 1, S: 2, Vt0: 0.5, KP: 2e-4}
	get := func(vd float64) float64 {
		st := newStamp(3, []float64{vd, 1.5, 0})
		st.Jac = false
		m.Stamp(st)
		return st.F[0]
	}
	iL, iR := get(-1e-7), get(1e-7)
	if math.Abs(iL-iR) > 1e-9 {
		t.Fatalf("drain current discontinuous across vds=0: %v vs %v", iL, iR)
	}
	if get(0) != 0 {
		t.Fatalf("Id(vds=0) = %v, want 0", get(0))
	}
}

func TestMOSFETPMOSMirror(t *testing.T) {
	nm := &MOSFET{Inst: "MN", D: 0, G: 1, S: 2, Vt0: 0.5, KP: 2e-4}
	pm := &MOSFET{Inst: "MP", D: 0, G: 1, S: 2, Vt0: -0.5, KP: 2e-4, TypeP: true}
	xN := []float64{2, 1.5, 0}
	xP := []float64{-2, -1.5, 0}
	stN := newStamp(3, xN)
	stN.Jac = false
	nm.Stamp(stN)
	stP := newStamp(3, xP)
	stP.Jac = false
	pm.Stamp(stP)
	if math.Abs(stN.F[0]+stP.F[0]) > 1e-15 {
		t.Fatalf("PMOS should mirror NMOS: %v vs %v", stN.F[0], stP.F[0])
	}
	assertJacobianConsistent(t, pm, 3, xP, 2e-4)
}

func TestMOSFETJacobianRandomProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m := &MOSFET{Inst: "M1", D: 0, G: 1, S: 2, Vt0: 0.5, KP: 2e-4, Lambda: 0.05}
	for trial := 0; trial < 50; trial++ {
		x := []float64{rng.Float64()*6 - 3, rng.Float64()*6 - 3, rng.Float64()*6 - 3}
		// Skip points within a hair of the region boundaries where the
		// one-sided finite difference straddles the C¹ seam.
		vgs, vds := x[1]-x[2], x[0]-x[2]
		if vds < 0 {
			vgs = x[1] - x[0]
			vds = -vds
		}
		if math.Abs(vgs-0.5) < 1e-3 || math.Abs(vds-(vgs-0.5)) < 1e-3 || math.Abs(vds) < 1e-3 {
			continue
		}
		assertJacobianConsistent(t, m, 3, x, 5e-3)
	}
}
