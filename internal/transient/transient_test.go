package transient

import (
	"context"
	"math"
	"testing"

	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/solver"
)

// rcCircuit returns V(5V step via DC) → R → out → C → gnd.
func rcCircuit(r, c float64) *circuit.Circuit {
	ckt := circuit.New("rc")
	ckt.V("V1", "in", "0", device.DC(5))
	ckt.R("R1", "in", "out", r)
	ckt.C("C1", "out", "0", c)
	return ckt
}

func TestDCResistiveDivider(t *testing.T) {
	ckt := circuit.New("div")
	ckt.V("V1", "in", "0", device.DC(9))
	ckt.R("R1", "in", "mid", 2000)
	ckt.R("R2", "mid", "0", 1000)
	x, st, err := DC(context.Background(), ckt, DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatal("DC not converged")
	}
	mid, _ := ckt.NodeIndex("mid")
	if math.Abs(x[mid]-3) > 1e-6 {
		t.Fatalf("v(mid) = %v, want 3", x[mid])
	}
}

func TestDCDiodeForwardDrop(t *testing.T) {
	// 5V → 1k → diode to ground: v ≈ 0.57–0.75 V, i = (5−v)/1k.
	ckt := circuit.New("dio")
	ckt.V("V1", "in", "0", device.DC(5))
	ckt.R("R1", "in", "a", 1000)
	ckt.D("D1", "a", "0", 1e-14)
	x, _, err := DC(context.Background(), ckt, DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := ckt.NodeIndex("a")
	if x[a] < 0.5 || x[a] > 0.8 {
		t.Fatalf("diode drop = %v, out of range", x[a])
	}
	// KCL: i through R equals diode current.
	d := &device.Diode{Is: 1e-14}
	id, _ := d.Current(x[a])
	ir := (5 - x[a]) / 1000
	if math.Abs(id-ir)/ir > 1e-6 {
		t.Fatalf("branch currents disagree: %v vs %v", id, ir)
	}
}

func TestDCMOSFETCommonSource(t *testing.T) {
	// VDD 3V, RD 10k from vdd to drain, NMOS gate at 1.0V, source grounded.
	// Id = KP/2·(0.5)² = 25µA·... with KP=2e-4: Id = 2e-4/2·0.25 = 25 µA →
	// Vd = 3 − 0.25 = 2.75 (sat since vds > vov).
	ckt := circuit.New("cs")
	ckt.V("VDD", "vdd", "0", device.DC(3))
	ckt.V("VG", "g", "0", device.DC(1))
	ckt.R("RD", "vdd", "d", 10000)
	ckt.M("M1", "d", "g", "0", device.MOSFET{Vt0: 0.5, KP: 2e-4})
	x, _, err := DC(context.Background(), ckt, DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d, _ := ckt.NodeIndex("d")
	if math.Abs(x[d]-2.75) > 1e-3 {
		t.Fatalf("v(drain) = %v, want 2.75", x[d])
	}
}

func TestTransientRCCharging(t *testing.T) {
	// v(t) = 5(1 − e^{−t/RC}) from v(0)=0. Start from an explicit zero IC.
	r, c := 1000.0, 1e-6 // τ = 1 ms
	ckt := rcCircuit(r, c)
	ckt.Finalize()
	x0 := make([]float64, ckt.Size())
	in, _ := ckt.NodeIndex("in")
	x0[in] = 5 // source node pinned; out starts at 0
	res, err := Run(context.Background(), ckt, Options{
		Method: TRAP, TStop: 5e-3, Step: 1e-5, X0: x0,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := ckt.NodeIndex("out")
	tau := r * c
	for k, tt := range res.T {
		want := 5 * (1 - math.Exp(-tt/tau))
		if math.Abs(res.X[k][out]-want) > 0.02*5 {
			t.Fatalf("t=%g: v=%v want %v", tt, res.X[k][out], want)
		}
	}
	// End value close to 5.
	final := res.X[len(res.X)-1][out]
	if math.Abs(final-5*(1-math.Exp(-5))) > 0.05 {
		t.Fatalf("final = %v", final)
	}
}

func TestTransientMethodsAgree(t *testing.T) {
	ckt0 := rcCircuit(1000, 1e-6)
	ckt0.Finalize()
	x0 := make([]float64, ckt0.Size())
	in, _ := ckt0.NodeIndex("in")
	x0[in] = 5
	run := func(m Method) float64 {
		ckt := rcCircuit(1000, 1e-6)
		ckt.Finalize()
		res, err := Run(context.Background(), ckt, Options{Method: m, TStop: 2e-3, Step: 2e-6, FixedStep: true, X0: x0})
		if err != nil {
			t.Fatal(err)
		}
		out, _ := ckt.NodeIndex("out")
		return res.X[len(res.X)-1][out]
	}
	vbe, vtr, vg2 := run(BE), run(TRAP), run(GEAR2)
	want := 5 * (1 - math.Exp(-2.0))
	for name, v := range map[string]float64{"BE": vbe, "TRAP": vtr, "GEAR2": vg2} {
		if math.Abs(v-want) > 0.03 {
			t.Fatalf("%s final = %v, want %v", name, v, want)
		}
	}
	// Second-order methods should beat BE on a smooth problem.
	if math.Abs(vtr-want) > math.Abs(vbe-want)+1e-9 {
		t.Fatalf("TRAP (%v) not better than BE (%v)", vtr, vbe)
	}
}

func TestTransientSineSteadyStateAmplitude(t *testing.T) {
	// RC low-pass driven at f = 1/(2πRC): gain must be 1/√2.
	r, c := 1000.0, 1e-6
	fc := 1 / (2 * math.Pi * r * c)
	ckt := circuit.New("lp")
	ckt.V("V1", "in", "0", device.Sine{Amp: 1, F1: fc, K1: 1})
	ckt.R("R1", "in", "out", r)
	ckt.C("C1", "out", "0", c)
	res, err := Run(context.Background(), ckt, Options{Method: TRAP, TStop: 20 / fc, Step: 1 / fc / 200, FixedStep: true})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := ckt.NodeIndex("out")
	// Measure peak over the last 2 cycles.
	peak := 0.0
	for k, tt := range res.T {
		if tt > 18/fc {
			if v := math.Abs(res.X[k][out]); v > peak {
				peak = v
			}
		}
	}
	if math.Abs(peak-1/math.Sqrt2) > 0.02 {
		t.Fatalf("corner-frequency gain = %v, want %v", peak, 1/math.Sqrt2)
	}
}

func TestTransientInductorLR(t *testing.T) {
	// 1V step into L-R: i(t) = (1 − e^{−tR/L})/R.
	ckt := circuit.New("lr")
	ckt.V("V1", "in", "0", device.DC(1))
	ind := ckt.L("L1", "in", "mid", 1e-3)
	ckt.R("R1", "mid", "0", 10)
	ckt.Finalize()
	x0 := make([]float64, ckt.Size())
	in, _ := ckt.NodeIndex("in")
	x0[in] = 1
	res, err := Run(context.Background(), ckt, Options{Method: TRAP, TStop: 5e-4, Step: 1e-6, FixedStep: true, X0: x0})
	if err != nil {
		t.Fatal(err)
	}
	iL := res.X[len(res.X)-1][ind.Branch()]
	tau := 1e-3 / 10
	want := (1 - math.Exp(-5e-4/tau)) / 10
	if math.Abs(iL-want) > 2e-3*math.Abs(want)+1e-6 {
		t.Fatalf("i(L) = %v, want %v", iL, want)
	}
}

func TestTransientHalfWaveRectifier(t *testing.T) {
	// Sine → diode → RC load: output stays near peak minus a drop and never
	// goes significantly negative.
	ckt := circuit.New("rect")
	f := 1e3
	ckt.V("V1", "in", "0", device.Sine{Amp: 5, F1: f, K1: 1})
	ckt.D("D1", "in", "out", 1e-14)
	ckt.R("RL", "out", "0", 10e3)
	ckt.C("CL", "out", "0", 1e-6)
	res, err := Run(context.Background(), ckt, Options{Method: GEAR2, TStop: 10e-3, Step: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := ckt.NodeIndex("out")
	minV, maxV := math.Inf(1), math.Inf(-1)
	for k, tt := range res.T {
		if tt < 2e-3 { // skip initial charge-up
			continue
		}
		v := res.X[k][out]
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	if maxV < 3.8 || maxV > 5 {
		t.Fatalf("rectified peak = %v", maxV)
	}
	if minV < 2.5 {
		t.Fatalf("ripple too deep: min %v", minV)
	}
}

func TestResultAtInterpolation(t *testing.T) {
	r := &Result{T: []float64{0, 1, 2}, X: [][]float64{{0}, {10}, {20}}}
	if v := r.At(0.5, nil)[0]; v != 5 {
		t.Fatalf("At(0.5) = %v", v)
	}
	if v := r.At(-1, nil)[0]; v != 0 {
		t.Fatalf("At(-1) = %v", v)
	}
	if v := r.At(3, nil)[0]; v != 20 {
		t.Fatalf("At(3) = %v", v)
	}
	if p := r.Probe(0); len(p) != 3 || p[2] != 20 {
		t.Fatalf("Probe = %v", p)
	}
}

func TestRunRejectsEmptyInterval(t *testing.T) {
	ckt := rcCircuit(1, 1)
	if _, err := Run(context.Background(), ckt, Options{TStop: 0}); err == nil {
		t.Fatal("expected error for empty interval")
	}
}

func TestAdaptiveStepTakesFewerPointsOnSmoothTail(t *testing.T) {
	ckt := rcCircuit(1000, 1e-6)
	ckt.Finalize()
	x0 := make([]float64, ckt.Size())
	in, _ := ckt.NodeIndex("in")
	x0[in] = 5
	adaptive, err := Run(context.Background(), ckt, Options{Method: GEAR2, TStop: 10e-3, Step: 1e-6, X0: x0})
	if err != nil {
		t.Fatal(err)
	}
	ckt2 := rcCircuit(1000, 1e-6)
	ckt2.Finalize()
	fixed, err := Run(context.Background(), ckt2, Options{Method: GEAR2, TStop: 10e-3, Step: 1e-6, FixedStep: true, X0: x0})
	if err != nil {
		t.Fatal(err)
	}
	if len(adaptive.T) >= len(fixed.T) {
		t.Fatalf("adaptive (%d points) should beat fixed (%d points)", len(adaptive.T), len(fixed.T))
	}
}

// TestDCStatsTotalEveryFallback: a diode driven hard through a small
// resistor defeats few-iteration Newton, so DC falls back to source
// stepping (rescued at MaxIter 3) and then to gmin stepping (which fails at
// MaxIter 2). Either way the returned NewtonIters must count every
// iteration those solves ran, as Progress sees them, and a rescued solve
// reports the rescuing solve's converged iterate.
func TestDCStatsTotalEveryFallback(t *testing.T) {
	for _, c := range []struct {
		maxIter int
		fails   bool
	}{{3, false}, {2, true}} {
		ckt := circuit.New("dio-hard")
		ckt.V("V1", "in", "0", device.DC(5))
		ckt.R("R1", "in", "a", 10)
		ckt.D("D1", "a", "0", 1e-14)
		calls := 0
		opt := DCOptions{}
		opt.Newton.MaxIter = c.maxIter
		opt.Newton.MaxStep = 10
		opt.Newton.Progress = func(int, float64) { calls++ }
		_, st, err := DC(context.Background(), ckt, opt)
		t.Logf("MaxIter %d: %d Newton iterations, %d Progress calls, err %v", c.maxIter, st.NewtonIters, calls, err)
		if (err != nil) != c.fails {
			t.Fatalf("MaxIter %d: err = %v, want failure %v", c.maxIter, err, c.fails)
		}
		if calls <= c.maxIter {
			t.Fatalf("MaxIter %d: only %d iterations ran: the plain try should have failed", c.maxIter, calls)
		}
		if st.NewtonIters != calls {
			t.Fatalf("MaxIter %d: Stats.NewtonIters = %d, want the %d iterations Progress saw", c.maxIter, st.NewtonIters, calls)
		}
		// A rescued solve reports the rescuing solve's iterate.
		if !c.fails && !st.Converged {
			t.Fatalf("MaxIter %d: rescued DC reports Converged = false (residual %.3e)", c.maxIter, st.Residual)
		}
	}
}

// TestGminLadderFactorsOnce: the gmin ladder solves its 13 same-pattern
// steps through one Newton workspace, so the hard diode deck, solved by the
// ladder alone from zero, takes one fresh factorisation and refactors after.
func TestGminLadderFactorsOnce(t *testing.T) {
	ckt := circuit.New("dio-hard")
	ckt.V("V1", "in", "0", device.DC(5))
	ckt.R("R1", "in", "a", 10)
	ckt.D("D1", "a", "0", 1e-14)
	ckt.Finalize()
	opt := solver.NewOptions()
	opt.MaxStep = 10
	x := make([]float64, ckt.Size())
	st, err := gminLadder(context.Background(), ckt, device.EvalCtx{Lambda: 1}, x, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d Newton iterations, %d factorisations, %d refactorisations", st.NewtonIters, st.Factorizations, st.Refactorizations)
	if st.Factorizations != 1 || st.Refactorizations == 0 {
		t.Fatalf("%d factorisations and %d refactorisations over the ladder, want 1 and the rest refactors",
			st.Factorizations, st.Refactorizations)
	}
	if !st.Converged {
		t.Fatalf("ladder reports Converged = false (residual %.3e)", st.Residual)
	}
	if a, _ := ckt.NodeIndex("a"); x[a] <= 0 || x[a] >= 1 {
		t.Fatalf("diode voltage %v, want a forward drop in (0, 1) V", x[a])
	}
}

// TestTracedIterationsMatchStats: a march from its DC point traces only
// the step solves its Stats count, so the traced newton.solve iterations
// sum to Stats.NewtonIters; the DC start runs detached from the trace.
func TestTracedIterationsMatchStats(t *testing.T) {
	ckt := circuit.New("rect")
	ckt.V("V1", "in", "0", device.Sine{Amp: 5, F1: 1e3, K1: 1})
	ckt.D("D1", "in", "out", 1e-14)
	ckt.R("RL", "out", "0", 10e3)
	ckt.C("CL", "out", "0", 1e-6)
	rec := obs.NewRecorder()
	res, err := Run(obs.WithRecorder(context.Background(), rec), ckt, Options{TStop: 2e-3})
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
