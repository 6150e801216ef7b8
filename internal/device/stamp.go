package device

import (
	"math"
	"sync"
	"sync/atomic"

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
	// Tape, when non-nil, plays SourceValue results from a SourceTable
	// point recorded at an unchanged Ctx (see SourceTape); nil evaluates
	// every call.
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

// SourceTable holds one recording of SourceValue results per evaluation
// point: the excitation b̂ of every grid point of an MPDE solve, or the one
// point of a time-march step. A point's recording is kept with the EvalCtx
// it was made at, and a SourceTape replays it into every later pass at an
// equal context — every Jacobian evaluation, damping trial and operator
// linearisation of the solve — so each point's waveforms are evaluated
// once per context. A changed context (a continuation λ step, a new slow
// time) re-records the point.
//
// Every point of a circuit calls SourceValue in the same device sequence,
// so the table keeps that sequence once, from its first recording, and
// each point's values in one slab at a stride of its length. A later
// recording with another sequence is not kept: the point evaluates its
// waveforms on every pass instead, which is still correct. A one-point
// table adopts the new sequence instead, since no other point can be
// replaying from the slab.
//
// Tapes may play different points of one table concurrently, each point
// by one tape at a time: a point's recording is written only by the tape
// that evaluates it.
type SourceTable struct {
	pts  []tablePoint
	devs []int32   // the calling device of each call, for every point
	vals []float64 // point p's values start at p·len(devs)
	// ready publishes devs and vals once the first recording set them; mu
	// serialises the tapes that race to set them.
	ready atomic.Bool
	mu    sync.Mutex
}

// tablePoint is one point's recording state: the context its values were
// recorded at, valid once a recording pass completed them.
type tablePoint struct {
	ctx   EvalCtx
	valid bool
}

// NewSourceTable returns a table of points points, none recorded.
func NewSourceTable(points int) *SourceTable {
	return &SourceTable{pts: make([]tablePoint, points)}
}

// SourceTape plays one point of a SourceTable per stamp pass: it replays
// the point's recording at an equal EvalCtx, and records it afresh
// otherwise, in device order with the calling device's index. Replayed
// values are the recorded float64s, so the accumulated B is bit-identical
// to a fresh evaluation. A replay whose call sequence differs from the
// recording — a device calling more or fewer times — is detected at End,
// and the caller re-runs the pass with record set, as for la.StampMap.
// A tape holds no recording of its own; the zero value is ready to use.
type SourceTape struct {
	tab    *SourceTable
	p      int
	record bool
	miss   bool
	cur    int32 // the device stamping now
	k      int   // next replay position
	// While replaying, the point's values and the table's device
	// sequence; while recording, the pass's calls.
	play []float64
	devs []int32
	rec  []tapeEntry
}

// tapeEntry is one recorded SourceValue result and the device that asked.
type tapeEntry struct {
	v   float64
	dev int32
}

// Begin starts a pass at point p of tab under ctx. The pass replays when
// the point holds a complete recording at a context equal to ctx field by
// field (floats compared by Float64bits, so -0 and +0 differ) and record
// is unset; otherwise it records afresh.
func (t *SourceTape) Begin(tab *SourceTable, p int, ctx *EvalCtx, record bool) {
	t.tab, t.p = tab, p
	t.k, t.miss, t.cur = 0, false, -1
	pt := &tab.pts[p]
	t.record = record || !pt.valid || !sameCtx(&pt.ctx, ctx)
	if t.record {
		pt.ctx, pt.valid = *ctx, false
		t.rec, t.play, t.devs = t.rec[:0], nil, nil
		return
	}
	n := len(tab.devs)
	t.play, t.devs = tab.vals[p*n:(p+1)*n], tab.devs
}

// Device marks the start of device k's stamps in the current pass.
func (t *SourceTape) Device(k int) { t.cur = int32(k) }

// End finishes the pass. A recording pass stores its values as the
// point's recording and reports true. A replay reports whether it saw the
// recorded sequence exactly; on false the pass's values are not to be
// trusted and the caller must re-run it with record set.
func (t *SourceTape) End() bool {
	if t.record {
		t.commit()
		return true
	}
	if t.miss || t.k != len(t.play) {
		t.tab.pts[t.p].valid = false
		return false
	}
	return true
}

// commit stores a recording pass's values in the point's slot of the slab
// when the pass called in the table's device sequence.
func (t *SourceTape) commit() {
	tab := t.tab
	if !tab.ready.Load() || len(tab.pts) == 1 && !t.sameDevs(tab.devs) {
		tab.shape(t.rec)
	}
	if !t.sameDevs(tab.devs) {
		return // the point stays unrecorded and evaluates on every pass
	}
	dst := tab.vals[t.p*len(tab.devs):]
	for k, e := range t.rec {
		dst[k] = e.v
	}
	tab.pts[t.p].valid = true
}

// shape takes rec's device sequence as the table's and sizes the slab for
// it: on the table's first recording, and on a one-point table's changed
// sequence.
func (tab *SourceTable) shape(rec []tapeEntry) {
	tab.mu.Lock()
	defer tab.mu.Unlock()
	if tab.ready.Load() && len(tab.pts) > 1 {
		return // another tape's recording shaped it first
	}
	tab.devs = tab.devs[:0]
	for _, e := range rec {
		tab.devs = append(tab.devs, e.dev) //mpde:alloc-ok once per table, and when a one-point table's sequence grows
	}
	n := len(tab.pts) * len(rec)
	if cap(tab.vals) < n {
		tab.vals = make([]float64, n) //mpde:alloc-ok likewise
	}
	tab.vals = tab.vals[:n]
	tab.ready.Store(true)
}

// sameDevs reports whether the recording pass called in sequence devs.
func (t *SourceTape) sameDevs(devs []int32) bool {
	if len(devs) != len(t.rec) {
		return false
	}
	for k, e := range t.rec {
		if devs[k] != e.dev {
			return false
		}
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
		if k < len(t.play) && t.devs[k] == t.cur {
			return t.play[k]
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
