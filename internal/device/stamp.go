package device

import (
	"math"

	"repro/internal/la"
)

// EvalCtx tells devices where and how the circuit is being evaluated.
type EvalCtx struct {
	// T is the one-dimensional evaluation time for source waveforms; used
	// when Torus is false.
	T float64
	// Torus selects bi-periodic source evaluation at phases (Th1, Th2);
	// multi-time analyses set this.
	Torus    bool
	Th1, Th2 float64
	// Lambda scales all independent sources (homotopy/continuation
	// parameter); 1 means full drive. DCLambda scales only DC supplies so
	// bias can be ramped separately from signal drive.
	Lambda float64
	// SignalOnlyLambda, when true, applies Lambda to time-varying sources
	// only, keeping DC bias at full strength (source-stepping the signal).
	SignalOnlyLambda bool
}

// FullDrive is the default evaluation context at time 0 with all sources on.
func FullDrive() EvalCtx { return EvalCtx{Lambda: 1} }

// Stamp is the accumulator devices write their contributions into. The
// simulator solves d/dt q(x) + f(x) + b(t) = 0; devices add to Q, F, B and,
// when Jac is set, to the compiled Jacobian stamps C = ∂q/∂x and G = ∂f/∂x.
type Stamp struct {
	X    []float64 // current iterate (read-only for devices)
	Q    []float64 // charge/flux residual accumulator
	F    []float64 // conductive residual accumulator
	B    []float64 // independent-source accumulator
	C    *la.StampMap
	G    *la.StampMap
	Jac  bool
	Ctx  EvalCtx
	Gmin float64 // solver-supplied minimum conductance to ground
	// Tape, when non-nil, records SourceValue results and replays them at
	// an unchanged Ctx (see SourceTape); nil evaluates every call.
	Tape *SourceTape
}

// V returns the voltage of an unknown index (-1 means ground → 0).
func (s *Stamp) V(idx int) float64 {
	if idx < 0 {
		return 0
	}
	return s.X[idx]
}

// AddQ accumulates into the charge residual (ground rows are dropped).
func (s *Stamp) AddQ(idx int, v float64) {
	if idx >= 0 {
		s.Q[idx] += v
	}
}

// AddF accumulates into the conductive residual.
func (s *Stamp) AddF(idx int, v float64) {
	if idx >= 0 {
		s.F[idx] += v
	}
}

// AddB accumulates into the source vector.
func (s *Stamp) AddB(idx int, v float64) {
	if idx >= 0 {
		s.B[idx] += v
	}
}

// AddC accumulates ∂q_i/∂x_j.
func (s *Stamp) AddC(i, j int, v float64) {
	if i >= 0 && j >= 0 {
		s.C.Add(i, j, v)
	}
}

// AddG accumulates ∂f_i/∂x_j.
func (s *Stamp) AddG(i, j int, v float64) {
	if i >= 0 && j >= 0 {
		s.G.Add(i, j, v)
	}
}

// SourceValue evaluates a waveform under the context's torus/one-time mode
// and continuation scaling. Sum waveforms are scaled member-wise so that
// SignalOnlyLambda keeps embedded DC bias terms at full strength while
// ramping the AC parts — the usual "bias on, signal stepped" homotopy.
//
// The value depends only on the waveform and Ctx, never on the iterate,
// and a device calls SourceValue in a sequence that does not depend on X
// either: the same calls, in the same order, on every pass. That is what
// lets a Tape replay the values of an earlier pass at the same Ctx.
func (s *Stamp) SourceValue(w Waveform) float64 {
	if s.Tape != nil {
		return s.Tape.value(w, &s.Ctx)
	}
	return evalScaled(w, &s.Ctx)
}

// SourceTape records the SourceValue results of one stamp pass, in device
// order with the calling device's index, and replays them into later
// passes at an equal EvalCtx. A time-march step evaluates the circuit at
// one time for its Jacobian, every damping trial and the accepted point;
// with a tape the waveforms are evaluated once for all of them. Replayed
// values are the recorded float64s, so the accumulated B is bit-identical
// to a fresh evaluation. A replay whose call sequence differs from the
// recording — a device calling more or fewer times — is detected at End,
// and the caller re-runs the pass with record set, as for la.StampMap.
// The zero value records on its first pass.
type SourceTape struct {
	ctx    EvalCtx
	valid  bool // rec holds a complete recording at ctx
	record bool
	miss   bool
	cur    int32 // the device stamping now
	k      int   // next replay position
	rec    []tapeEntry
}

// tapeEntry is one recorded SourceValue result and the device that asked.
type tapeEntry struct {
	v   float64
	dev int32
}

// Begin starts a pass at ctx. The pass replays when the tape holds a
// complete recording at a context equal to ctx field by field (floats
// compared by Float64bits, so -0 and +0 differ) and record is unset;
// otherwise it records afresh.
func (t *SourceTape) Begin(ctx *EvalCtx, record bool) {
	t.k, t.miss, t.cur = 0, false, -1
	t.record = record || !t.valid || !sameCtx(&t.ctx, ctx)
	if t.record {
		t.ctx, t.valid = *ctx, false
		t.rec = t.rec[:0]
	}
}

// Device marks the start of device k's stamps in the current pass.
func (t *SourceTape) Device(k int) { t.cur = int32(k) }

// End finishes the pass. A recording pass completes the tape and reports
// true. A replay reports whether it saw the recorded sequence exactly; on
// false the pass's values are not to be trusted and the caller must re-run
// it with record set.
func (t *SourceTape) End() bool {
	if t.record {
		t.valid = true
		return true
	}
	if t.miss || t.k != len(t.rec) {
		t.valid = false
		return false
	}
	return true
}

// value is SourceValue through the tape.
//
//mpde:hotpath
func (t *SourceTape) value(w Waveform, ctx *EvalCtx) float64 {
	if !t.record {
		k := t.k
		t.k = k + 1
		if k < len(t.rec) && t.rec[k].dev == t.cur {
			return t.rec[k].v
		}
		t.miss = true
		return evalScaled(w, ctx)
	}
	v := evalScaled(w, ctx)
	t.rec = append(t.rec, tapeEntry{v, t.cur}) //mpde:alloc-ok grows only while recording, to the pass's call count
	return v
}

// sameCtx reports whether a and b are equal field by field, floats by
// their bits.
func sameCtx(a, b *EvalCtx) bool {
	return math.Float64bits(a.T) == math.Float64bits(b.T) &&
		a.Torus == b.Torus &&
		math.Float64bits(a.Th1) == math.Float64bits(b.Th1) &&
		math.Float64bits(a.Th2) == math.Float64bits(b.Th2) &&
		math.Float64bits(a.Lambda) == math.Float64bits(b.Lambda) &&
		a.SignalOnlyLambda == b.SignalOnlyLambda
}

func evalScaled(w Waveform, ctx *EvalCtx) float64 {
	if sum, ok := w.(Sum); ok {
		total := 0.0
		for _, part := range sum {
			total += evalScaled(part, ctx)
		}
		return total
	}
	var v float64
	if ctx.Torus {
		tw, ok := w.(TorusWaveform)
		if !ok {
			// Analyses validate this up front; fall back to t=0 value so a
			// mis-use is at least deterministic.
			v = w.Eval(0)
		} else {
			v = tw.EvalTorus(ctx.Th1, ctx.Th2)
		}
	} else {
		v = w.Eval(ctx.T)
	}
	if ctx.SignalOnlyLambda {
		if _, isDC := w.(DC); isDC {
			return v // bias kept at full strength
		}
	}
	return ctx.Lambda * v
}

// Device is a circuit element. Terminal and branch unknown indices are
// assigned by the circuit during finalisation; -1 denotes ground.
type Device interface {
	// Name returns the instance name (e.g. "M1", "RL").
	Name() string
	// Stamp adds the device's contributions at the current iterate.
	Stamp(s *Stamp)
}

// Brancher is implemented by devices that introduce extra current unknowns
// (voltage sources, inductors, VCVS). The circuit calls SetBranch with the
// base unknown index for the device's branches.
type Brancher interface {
	NumBranches() int
	SetBranch(base int)
}

// Sourcer is implemented by independent sources; analyses use it to validate
// torus compatibility and to enumerate excitation tones.
type Sourcer interface {
	Wave() Waveform
}
