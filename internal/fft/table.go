package fft

import "repro/internal/lru"

// planTableBytes bounds the process-wide plan table: the bytes of the
// tables its plans retain, summed. The disparity sweep's record lengths
// (500, 2000 and 10 000, Bluestein lengths up to 32 768) retain about
// 2.8 MB; the rest of the budget holds the grid plans of QPSS, HB and the
// spectral tail beside them.
const planTableBytes = 16 << 20

// planKey identifies a stored plan: the length-n1 plan, or with twoD the
// n1×n2 plan.
type planKey struct {
	n1, n2 int
	twoD   bool
}

// plans is the process-wide plan table PlanFor and Plan2DFor load from.
// Plans are immutable, so every caller shares the stored one.
var plans = lru.New[planKey, any](planTableBytes)

// PlanFor returns the plan of length-n transforms from the process-wide
// table, building and storing it on a miss. Its transforms are bit for bit
// those of NewPlan(n).
func PlanFor(n int) *Plan {
	key := planKey{n1: n}
	if p, ok := plans.Get(key); ok {
		return p.(*Plan)
	}
	p := NewPlan(n)
	plans.Put(key, p, p.bytes())
	return p
}

// Plan2DFor returns the plan of n1×n2 transforms from the process-wide
// table, its axis plans from PlanFor. Its transforms are bit for bit those
// of NewPlan2D(n1, n2).
func Plan2DFor(n1, n2 int) *Plan2D {
	key := planKey{n1: n1, n2: n2, twoD: true}
	if p, ok := plans.Get(key); ok {
		return p.(*Plan2D)
	}
	p := &Plan2D{n1: n1, n2: n2, rows: PlanFor(n2), cols: PlanFor(n1)}
	bytes := p.rows.bytes()
	if n1 != n2 {
		bytes += p.cols.bytes()
	}
	plans.Put(key, p, bytes)
	return p
}

// bytes is what the plan's tables retain, the inverse chirp transform a
// Bluestein plan builds on first use included.
func (p *Plan) bytes() int {
	const c = 16 // bytes per complex128
	b := c * (len(p.tw) + len(p.chirp))
	if p.chirp != nil {
		b += 2 * c * p.m
	}
	return b
}
