// Package circuit assembles device stamps into the MNA system
//
//	d/dt q(x) + f(x) + b(t) = 0
//
// where x stacks node voltages (ground excluded) followed by branch currents
// of voltage-defined elements. The package owns node naming, unknown-index
// assignment and residual/Jacobian evaluation; the analyses in
// internal/{transient,shooting,hb,core} consume the Eval interface.
package circuit

import (
	"fmt"
	"sort"

	"repro/internal/device"
	"repro/internal/la"
)

// Circuit is a flat netlist plus unknown-numbering state.
type Circuit struct {
	Title string

	nodeID   map[string]int // name → node number (0 = ground)
	nodeName []string       // node number → name
	devices  []device.Device
	branches int
	final    bool

	// Gmin is a small conductance from every node to ground added during
	// evaluation; it regularises floating nodes exactly like SPICE's GMIN.
	Gmin float64
}

// New returns an empty circuit. The ground node is pre-registered under the
// names "0" and "gnd".
func New(title string) *Circuit {
	c := &Circuit{
		Title:    title,
		nodeID:   map[string]int{"0": 0, "gnd": 0},
		nodeName: []string{"0"},
		Gmin:     1e-12,
	}
	return c
}

// Node interns a node name and returns its unknown index (-1 for ground).
func (c *Circuit) Node(name string) int {
	if c.final {
		panic("circuit: Node after Finalize")
	}
	id, ok := c.nodeID[name]
	if !ok {
		id = len(c.nodeName)
		c.nodeID[name] = id
		c.nodeName = append(c.nodeName, name)
	}
	return id - 1 // ground (#0) → -1
}

// NodeIndex returns the unknown index of an existing node name, or an error.
func (c *Circuit) NodeIndex(name string) (int, error) {
	id, ok := c.nodeID[name]
	if !ok {
		return 0, fmt.Errorf("circuit: unknown node %q", name)
	}
	return id - 1, nil
}

// NodeNames returns the non-ground node names ordered by unknown index.
func (c *Circuit) NodeNames() []string {
	out := append([]string(nil), c.nodeName[1:]...)
	return out
}

// Add registers a device instance.
func (c *Circuit) Add(d device.Device) {
	if c.final {
		panic("circuit: Add after Finalize")
	}
	c.devices = append(c.devices, d)
}

// Devices returns the registered devices (read-only use).
func (c *Circuit) Devices() []device.Device { return c.devices }

// Finalize assigns branch-current unknowns. It must be called once, after all
// devices are added and before evaluation.
func (c *Circuit) Finalize() {
	if c.final {
		return
	}
	nNodes := len(c.nodeName) - 1
	base := nNodes
	for _, d := range c.devices {
		if br, ok := d.(device.Brancher); ok {
			br.SetBranch(base)
			base += br.NumBranches()
		}
	}
	c.branches = base - nNodes
	c.final = true
}

// Size returns the total number of unknowns (node voltages + branch currents).
func (c *Circuit) Size() int {
	if !c.final {
		panic("circuit: Size before Finalize")
	}
	return len(c.nodeName) - 1 + c.branches
}

// NumNodes returns the number of node-voltage unknowns.
func (c *Circuit) NumNodes() int { return len(c.nodeName) - 1 }

// Eval holds reusable evaluation workspace for one circuit. It evaluates
// the source waveforms once per evaluation context and point: EvalAt and
// EvalAtInto keep a one-point device.SourceTable, so consecutive
// evaluations at an equal device.EvalCtx replay the first one's source
// values, and EvalPoint plays one point of a caller-owned table.
type Eval struct {
	ckt  *Circuit
	st   device.Stamp
	tape device.SourceTape
	own  *device.SourceTable // EvalAt's one-point table
	// The stamp pass writes the tape's cursor per device and per source
	// call. The MPDE assembler runs one Eval per worker concurrently, and
	// two Evals allocated side by side would share a cache line; the pad
	// keeps this Eval's written fields off the next object's lines.
	// Without it, parallel residual assembly ran about 25% slower.
	_ [64]byte
}

// NewEval allocates evaluation workspace.
func (c *Circuit) NewEval() *Eval {
	if !c.final {
		c.Finalize()
	}
	n := c.Size()
	e := &Eval{ckt: c, own: device.NewSourceTable(1)}
	e.st = device.Stamp{
		Q:    make([]float64, n),
		F:    make([]float64, n),
		B:    make([]float64, n),
		C:    la.NewStampMap(n, n),
		G:    la.NewStampMap(n, n),
		Tape: &e.tape,
	}
	return e
}

// Compiles counts the Jacobian stamp sequences this Eval has compiled.
func (e *Eval) Compiles() int { return e.st.C.Compiles() + e.st.G.Compiles() }

// Result is the outcome of one evaluation.
type Result struct {
	Q, F, B []float64 // views into the Eval workspace — copy before reuse
	C, G    *la.CSR   // nil unless Jacobian requested
}

// Residual returns r = F + B (the algebraic part; time-derivative handling is
// the analysis's job) into dst, allocating when dst is nil.
func (r *Result) Residual(dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(r.F))
	}
	for i := range r.F {
		dst[i] = r.F[i] + r.B[i]
	}
	return dst
}

// EvalAt stamps every device at iterate x under ctx. When jac is true the
// sparse Jacobians C = ∂q/∂x and G = ∂f/∂x are returned, each with a fresh
// Val over the Eval's shared pattern.
func (e *Eval) EvalAt(x []float64, ctx device.EvalCtx, jac bool) Result {
	return e.EvalAtInto(x, ctx, jac, nil, nil)
}

// EvalAtInto is EvalAt with caller-owned Jacobian values: when jac is set,
// C and G are written into c and g. Their RowPtr/ColIdx become the Eval's
// compiled pattern — shared and read-only, kept until the devices stamp a
// different sequence — and their Val is grown only when capacity is short.
// The MPDE grid assembler keeps one (c, g) pair per grid point and
// re-stamps them every Newton iteration without allocating. nil c/g
// allocate as EvalAt does.
func (e *Eval) EvalAtInto(x []float64, ctx device.EvalCtx, jac bool, c, g *la.CSR) Result {
	return e.EvalPoint(e.own, 0, x, ctx, jac, c, g)
}

// EvalPoint is EvalAtInto at point p of the caller-owned source table tab:
// the pass replays point p's recorded source values when they were
// recorded at a ctx equal to this one, and records them otherwise. A grid
// assembler keeps one table over its grid points, so each point's
// waveforms are evaluated once per context however many Jacobian
// evaluations, damping trials and linearisations revisit it. Evals may
// evaluate different points of one table concurrently, each point by one
// Eval at a time.
func (e *Eval) EvalPoint(tab *device.SourceTable, p int, x []float64, ctx device.EvalCtx, jac bool, c, g *la.CSR) Result {
	n := e.ckt.Size()
	if len(x) != n {
		panic(fmt.Sprintf("circuit: iterate size %d, want %d", len(x), n))
	}
	st := &e.st
	st.X = x
	st.Jac = jac
	st.Ctx = ctx
	st.Gmin = e.ckt.Gmin
	res := Result{Q: st.Q, F: st.F, B: st.B}
	if jac {
		if c == nil {
			c = &la.CSR{}
		}
		if g == nil {
			g = &la.CSR{}
		}
		res.C, res.G = c, g
	}
	// Replay the compiled stamps and the recorded source values; a
	// sequence that changed re-runs the devices once with that half in
	// record mode, which recompiles it.
	recJac, recSrc := false, false
	for {
		if jac {
			st.C.Begin(c, recJac)
			st.G.Begin(g, recJac)
		}
		e.tape.Begin(tab, p, &st.Ctx, recSrc)
		e.stamp()
		srcOK := e.tape.End()
		jacOK := !jac || st.C.End() && st.G.End()
		if srcOK && jacOK {
			return res
		}
		recJac, recSrc = recJac || !jacOK, recSrc || !srcOK
	}
}

// stamp zeroes the residual accumulators and runs every device, plus GMIN
// to ground on every node unknown, at the workspace's iterate.
func (e *Eval) stamp() {
	st := &e.st
	la.Fill(st.Q, 0)
	la.Fill(st.F, 0)
	la.Fill(st.B, 0)
	for k, d := range e.ckt.devices {
		e.tape.Device(k)
		d.Stamp(st)
	}
	if g := e.ckt.Gmin; g > 0 {
		for i := 0; i < e.ckt.NumNodes(); i++ {
			st.F[i] += g * st.X[i]
			if st.Jac {
				st.G.Add(i, i, g)
			}
		}
	}
}

// TorusSources returns the independent sources whose waveforms are not
// torus-compatible (neither DC nor TorusWaveform); multi-time analyses call
// this to fail fast with a useful message.
func (c *Circuit) NonTorusSources() []string {
	var bad []string
	for _, d := range c.devices {
		src, ok := d.(device.Sourcer)
		if !ok {
			continue
		}
		w := src.Wave()
		if _, isTorus := w.(device.TorusWaveform); isTorus {
			continue
		}
		bad = append(bad, d.Name())
	}
	sort.Strings(bad)
	return bad
}

// --- convenience builders -------------------------------------------------

// R adds a resistor between named nodes.
func (c *Circuit) R(name, p, n string, ohms float64) *device.Resistor {
	d := &device.Resistor{Inst: name, P: c.Node(p), N: c.Node(n), R: ohms}
	c.Add(d)
	return d
}

// C adds a capacitor between named nodes.
func (c *Circuit) C(name, p, n string, farads float64) *device.Capacitor {
	d := &device.Capacitor{Inst: name, P: c.Node(p), N: c.Node(n), C: farads}
	c.Add(d)
	return d
}

// L adds an inductor between named nodes.
func (c *Circuit) L(name, p, n string, henries float64) *device.Inductor {
	d := &device.Inductor{Inst: name, P: c.Node(p), N: c.Node(n), L: henries}
	c.Add(d)
	return d
}

// V adds an independent voltage source.
func (c *Circuit) V(name, p, n string, w device.Waveform) *device.VSource {
	d := &device.VSource{Inst: name, P: c.Node(p), N: c.Node(n), W: w}
	c.Add(d)
	return d
}

// I adds an independent current source (current flows P→N through it).
func (c *Circuit) I(name, p, n string, w device.Waveform) *device.ISource {
	d := &device.ISource{Inst: name, P: c.Node(p), N: c.Node(n), W: w}
	c.Add(d)
	return d
}

// D adds a diode (anode p, cathode n) with the given saturation current.
func (c *Circuit) D(name, p, n string, is float64) *device.Diode {
	d := &device.Diode{Inst: name, P: c.Node(p), N: c.Node(n), Is: is}
	c.Add(d)
	return d
}

// M adds a level-1 MOSFET.
func (c *Circuit) M(name, d_, g, s string, m device.MOSFET) *device.MOSFET {
	m.Inst = name
	m.D, m.G, m.S = c.Node(d_), c.Node(g), c.Node(s)
	dev := &m
	c.Add(dev)
	return dev
}

// Gm adds a VCCS.
func (c *Circuit) Gm(name, p, n, cp, cn string, gm float64) *device.VCCS {
	d := &device.VCCS{Inst: name, P: c.Node(p), N: c.Node(n),
		CP: c.Node(cp), CN: c.Node(cn), Gm: gm}
	c.Add(d)
	return d
}

// E adds a VCVS.
func (c *Circuit) E(name, p, n, cp, cn string, mu float64) *device.VCVS {
	d := &device.VCVS{Inst: name, P: c.Node(p), N: c.Node(n),
		CP: c.Node(cp), CN: c.Node(cn), Mu: mu}
	c.Add(d)
	return d
}

// Mult adds an ideal multiplier element injecting Gm·v(a)·v(b) into node n.
func (c *Circuit) Mult(name, n, a, b string, gm float64) *device.Multiplier {
	d := &device.Multiplier{Inst: name, N: c.Node(n), A: c.Node(a), B_: c.Node(b), Gm: gm}
	c.Add(d)
	return d
}
