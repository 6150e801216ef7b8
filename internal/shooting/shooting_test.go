package shooting

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/la"
	"repro/internal/obs"
	"repro/internal/transient"
)

// rcDriven returns a sine-driven RC low-pass and its element values.
func rcDriven(f float64) (*circuit.Circuit, float64, float64) {
	r, c := 1000.0, 1e-6
	ckt := circuit.New("rc-pss")
	ckt.V("V1", "in", "0", device.Sine{Amp: 1, F1: f, K1: 1})
	ckt.R("R1", "in", "out", r)
	ckt.C("C1", "out", "0", c)
	return ckt, r, c
}

func TestPSSLinearRCMatchesAnalytic(t *testing.T) {
	f := 500.0
	ckt, r, c := rcDriven(f)
	res, err := PSS(context.Background(), ckt, Options{Period: 1 / f, Steps: 400})
	if err != nil {
		t.Fatal(err)
	}
	// Analytic: |H| = 1/√(1+(ωRC)²), phase = −atan(ωRC).
	w := 2 * math.Pi * f
	gain := 1 / math.Sqrt(1+w*r*c*w*r*c)
	phase := -math.Atan(w * r * c)
	out, _ := ckt.NodeIndex("out")
	for k, tt := range res.Orbit.T {
		want := gain * math.Cos(w*tt+phase)
		if math.Abs(res.Orbit.X[k][out]-want) > 0.01 {
			t.Fatalf("t=%g: pss %v vs analytic %v", tt, res.Orbit.X[k][out], want)
		}
	}
}

func TestPSSPeriodicityResidual(t *testing.T) {
	f := 1000.0
	ckt, _, _ := rcDriven(f)
	res, err := PSS(context.Background(), ckt, Options{Period: 1 / f, Steps: 256, Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalError > 1e-9 {
		t.Fatalf("periodicity error %v", res.FinalError)
	}
	first := res.Orbit.X[0]
	last := res.Orbit.X[len(res.Orbit.X)-1]
	for i := range first {
		if math.Abs(first[i]-last[i]) > 1e-7 {
			t.Fatalf("orbit not closed at unknown %d: %v vs %v", i, first[i], last[i])
		}
	}
}

func TestPSSConvergesInFewIterationsLinear(t *testing.T) {
	// For a linear circuit, shooting-Newton is exact in ONE iteration.
	f := 1000.0
	ckt, _, _ := rcDriven(f)
	res, err := PSS(context.Background(), ckt, Options{Period: 1 / f, Steps: 128})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 2 {
		t.Fatalf("linear shooting took %d iterations, want ≤ 2", res.Iterations)
	}
}

func TestPSSRectifierMatchesLongTransient(t *testing.T) {
	build := func() *circuit.Circuit {
		ckt := circuit.New("rect-pss")
		f := 1e3
		ckt.V("V1", "in", "0", device.Sine{Amp: 5, F1: f, K1: 1})
		ckt.D("D1", "in", "out", 1e-14)
		ckt.R("RL", "out", "0", 10e3)
		ckt.C("CL", "out", "0", 2e-7)
		return ckt
	}
	f := 1e3
	ckt := build()
	res, err := PSS(context.Background(), ckt, Options{Period: 1 / f, Steps: 512, Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	// Long transient reference (20 periods reaches steady state, τ = 2 ms).
	ckt2 := build()
	tr, err := transient.Run(context.Background(), ckt2, transient.Options{
		Method: transient.BE, TStop: 30e-3, Step: 1 / f / 512, FixedStep: true})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := ckt.NodeIndex("out")
	// Compare at matching phases over the final transient period.
	for k := 0; k <= 8; k++ {
		phase := float64(k) / 8
		tRef := 29e-3 + phase/f
		ref := tr.At(tRef, nil)[out]
		got := res.Orbit.At(phase/f, nil)[out]
		if math.Abs(got-ref) > 0.05 {
			t.Fatalf("phase %.2f: pss %v vs transient %v", phase, got, ref)
		}
	}
	if res.TotalTimeSteps >= tr.Steps {
		t.Fatalf("shooting (%d steps) should beat brute-force transient (%d steps)",
			res.TotalTimeSteps, tr.Steps)
	}
}

func TestPSSNonlinearMixerlikeCircuit(t *testing.T) {
	// A MOSFET common-source stage driven hard — strongly nonlinear PSS.
	f := 10e6
	ckt := circuit.New("cs-pss")
	ckt.V("VDD", "vdd", "0", device.DC(3))
	ckt.V("VG", "g", "0", device.Sum{device.DC(0.8), device.Sine{Amp: 0.7, F1: f, K1: 1}})
	ckt.R("RD", "vdd", "d", 5e3)
	ckt.C("CD", "d", "0", 2e-12)
	ckt.M("M1", "d", "g", "0", device.MOSFET{Vt0: 0.5, KP: 1e-3})
	res, err := PSS(context.Background(), ckt, Options{Period: 1 / f, Steps: 256, Tol: 1e-7})
	if err != nil {
		t.Fatal(err)
	}
	d, _ := ckt.NodeIndex("d")
	minV, maxV := math.Inf(1), math.Inf(-1)
	for _, x := range res.Orbit.X {
		if x[d] < minV {
			minV = x[d]
		}
		if x[d] > maxV {
			maxV = x[d]
		}
	}
	// The stage must actually switch: large output swing, bounded by rails.
	if maxV > 3.01 || minV < -0.01 {
		t.Fatalf("drain voltage out of rails: [%v, %v]", minV, maxV)
	}
	if maxV-minV < 0.5 {
		t.Fatalf("swing too small (%v) — stage not exercised", maxV-minV)
	}
}

func TestPSSInvalidOptions(t *testing.T) {
	ckt, _, _ := rcDriven(1e3)
	if _, err := PSS(context.Background(), ckt, Options{Period: 0}); err == nil {
		t.Fatal("expected error for zero period")
	}
	ckt2, _, _ := rcDriven(1e3)
	if _, err := PSS(context.Background(), ckt2, Options{Period: 1e-3, X0: make([]float64, 1)}); err == nil {
		t.Fatal("expected error for bad X0 size")
	}
}

// spectralRadius estimates the largest Floquet multiplier magnitude ρ(m)
// as ‖mᵏv‖^(1/k) for k = 200 from a unit v, renormalising every step so the
// power stays finite.
func spectralRadius(m *la.Dense) float64 {
	const k = 200
	v, w := make([]float64, m.Rows), make([]float64, m.Rows)
	la.Fill(v, 1/math.Sqrt(float64(m.Rows)))
	logNorm := 0.0
	for i := 0; i < k; i++ {
		m.MulVec(v, w)
		nw := la.Norm2(w)
		if nw == 0 {
			return 0
		}
		logNorm += math.Log(nw)
		la.Scal(1/nw, w)
		v, w = w, v
	}
	return math.Exp(logNorm / k)
}

func TestFloquetMultipliersLinearRC(t *testing.T) {
	// For the driven RC, the single dynamic state has multiplier
	// exp(−T/RC); the algebraic unknowns (source node, branch current)
	// contribute ~0 multipliers, so it is the spectral radius.
	f := 1e3
	r, c := 1000.0, 1e-6
	ckt, _, _ := rcDriven(f)
	res, err := PSS(context.Background(), ckt, Options{Period: 1 / f, Steps: 2048})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Exp(-1 / (f * r * c))
	if rho := spectralRadius(res.Monodromy); math.Abs(rho-want) >= 0.01 {
		t.Fatalf("spectral radius %v, want %v", rho, want)
	}
}

func TestFloquetNonlinearMixerStable(t *testing.T) {
	f := 10e6
	ckt := circuit.New("cs-floquet")
	ckt.V("VDD", "vdd", "0", device.DC(3))
	ckt.V("VG", "g", "0", device.Sum{device.DC(0.8), device.Sine{Amp: 0.7, F1: f, K1: 1}})
	ckt.R("RD", "vdd", "d", 5e3)
	ckt.C("CD", "d", "0", 2e-12)
	ckt.M("M1", "d", "g", "0", device.MOSFET{Vt0: 0.5, KP: 1e-3})
	res, err := PSS(context.Background(), ckt, Options{Period: 1 / f, Steps: 256})
	if err != nil {
		t.Fatal(err)
	}
	if rho := spectralRadius(res.Monodromy); !(rho < 1-1e-9) {
		t.Fatalf("forced mixer orbit should be stable; spectral radius %v", rho)
	}
}

// TestPSSHonorsCanceledContext: a canceled context must abort the inner
// per-timestep solves before any integration work.
func TestPSSHonorsCanceledContext(t *testing.T) {
	f := 1000.0
	ckt, _, _ := rcDriven(f)
	var opt Options
	opt.Period = 1 / f
	opt.Steps = 64
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := PSS(ctx, ckt, opt)
	if err == nil {
		t.Fatal("PSS converged despite a canceled context")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestTracedIterationsMatchStats: a PSS from the DC point traces only the
// step solves its Stats count, so the traced newton.solve iterations sum
// to Stats.NewtonIters; the DC start runs detached from the trace.
func TestTracedIterationsMatchStats(t *testing.T) {
	const f = 1e3
	ckt := circuit.New("rect")
	ckt.V("V1", "in", "0", device.Sine{Amp: 5, F1: f, K1: 1})
	ckt.D("D1", "in", "out", 1e-14)
	ckt.R("RL", "out", "0", 10e3)
	ckt.C("CL", "out", "0", 1e-6)
	rec := obs.NewRecorder()
	res, err := PSS(obs.WithRecorder(context.Background(), rec), ckt, Options{Period: 1 / f, Steps: 100})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("%d spans dropped: the sum needs every one", rec.Dropped())
	}
	var traced int64
	for _, sp := range rec.Snapshot() {
		if sp.Name == "newton.solve" {
			traced += sp.Attrs["iterations"].(int64)
		}
	}
	if traced != int64(res.Stats.NewtonIters) {
		t.Fatalf("traced newton.solve iterations sum to %d, Stats.NewtonIters = %d", traced, res.Stats.NewtonIters)
	}
}

// TestPSSIntegratesEachPeriodOnce: every iteration integrates one period
// and the converged one is the orbit, so a converged solve takes exactly
// Iterations·Steps BE steps and its orbit closes on X0.
func TestPSSIntegratesEachPeriodOnce(t *testing.T) {
	rect := circuit.New("rect")
	rect.V("V1", "in", "0", device.Sine{Amp: 5, F1: 1e3, K1: 1})
	rect.D("D1", "in", "out", 1e-14)
	rect.R("RL", "out", "0", 10e3)
	rect.C("CL", "out", "0", 1e-6)
	cs := circuit.New("cs")
	cs.V("VDD", "vdd", "0", device.DC(3))
	cs.V("VG", "g", "0", device.Sum{device.DC(0.8), device.Sine{Amp: 0.7, F1: 10e6, K1: 1}})
	cs.R("RD", "vdd", "d", 5e3)
	cs.C("CD", "d", "0", 2e-12)
	cs.M("M1", "d", "g", "0", device.MOSFET{Vt0: 0.5, KP: 1e-3})
	rc, _, _ := rcDriven(1e3)
	for _, c := range []struct {
		name   string
		ckt    *circuit.Circuit
		period float64
		steps  int
	}{{"rc", rc, 1e-3, 128}, {"rect", rect, 1e-3, 100}, {"cs", cs, 1e-7, 256}} {
		res, err := PSS(context.Background(), c.ckt, Options{Period: c.period, Steps: c.steps})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if want := res.Iterations * c.steps; res.TotalTimeSteps != want {
			t.Fatalf("%s: TotalTimeSteps = %d over %d iterations of %d steps, want %d",
				c.name, res.TotalTimeSteps, res.Iterations, c.steps, want)
		}
		if len(res.Orbit.X) != c.steps+1 {
			t.Fatalf("%s: orbit has %d points, want %d", c.name, len(res.Orbit.X), c.steps+1)
		}
		for i, x := range res.X0 {
			if res.Orbit.X[0][i] != x {
				t.Fatalf("%s: orbit starts at %v, X0 is %v", c.name, res.Orbit.X[0], res.X0)
			}
		}
	}
}
