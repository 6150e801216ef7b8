package la

import "fmt"

// BatchLU factors one representative matrix and then numeric-only-refactors
// a fixed number of same-pattern value arrays — its slots — against that
// shared symbolic analysis. The per-slot factors live in two contiguous
// arrays (slot k's L values at lx[k·nl:(k+1)·nl], likewise for U), so a
// batch of N MPDE Jacobians costs one symbolic analysis plus N numeric
// sweeps — the block-structure payoff the matrix-free preconditioner leans
// on.
//
// When the frozen pivot order goes unstable for a particular matrix
// (vanishing pivot, growth past the stability bound), that slot silently
// falls back to a fresh fully-pivoted factorisation that stays private to
// the slot; Solve routes through whichever factor the slot ended up with.
//
// Every call addresses one slot and runs in caller-owned scratch, so
// distinct slots may be refactored and solved concurrently; one slot must
// not be used by two goroutines at once.
type BatchLU struct {
	sym    *SparseLU
	nl, nu int // per-slot L and U value lengths

	lx, ux []float64   // contiguous slot value storage
	fresh  []*SparseLU // per-slot fallback factorisations (nil = shared path)
}

// NewBatchLU factors the representative matrix rep (threshold pivot tol as in
// SparseLUFactor) and allocates storage for slots factors.
func NewBatchLU(rep *CSR, tol float64, slots int) (*BatchLU, error) {
	sym, err := SparseLUFactor(rep, tol)
	if err != nil {
		return nil, err
	}
	slots = max(slots, 0)
	b := &BatchLU{sym: sym, nl: len(sym.lx), nu: len(sym.ux)}
	// Every slot starts as a copy of the representative's factors: L's unit
	// diagonal, which refactors never rewrite, must already be in place.
	b.lx = make([]float64, 0, slots*b.nl)
	b.ux = make([]float64, 0, slots*b.nu)
	for k := 0; k < slots; k++ {
		b.lx = append(b.lx, sym.lx...)
		b.ux = append(b.ux, sym.ux...)
	}
	b.fresh = make([]*SparseLU, slots)
	return b, nil
}

// N returns the matrix dimension.
func (b *BatchLU) N() int { return b.sym.n }

// FillFactor reports the shared symbolic factorisation's LU fill.
func (b *BatchLU) FillFactor() float64 { return b.sym.FillFactor }

// Refactor factors a — which must share the representative's sparsity
// pattern — into slot k, replacing what the slot held. The shared-analysis
// refactor is attempted first; on a stability bailout the slot gets a
// private fresh factorisation instead, and fallback reports that. work is
// N-vector scratch whose contents on entry do not matter, so one scratch
// can serve a goroutine's refactors and solves alike. The error is non-nil
// only when a is singular beyond recovery (fresh factorisation also failed)
// or its pattern differs; the slot is unusable until a later Refactor
// succeeds.
//
//mpde:hotpath
func (b *BatchLU) Refactor(k int, a *CSR, work []float64) (fallback bool, err error) {
	if k < 0 || k >= len(b.fresh) || len(work) < b.sym.n {
		panic(ErrShape)
	}
	if !b.sym.SamePattern(a) { //mpde:coldpath pattern mismatch refuses the slot
		return false, fmt.Errorf("la: batch refactor pattern mismatch (want the representative %d×%d pattern)", b.sym.n, b.sym.n)
	}
	b.fresh[k] = nil
	clear(work[:b.sym.n]) // the refactor scatters into zeroed scratch
	lo, uo := k*b.nl, k*b.nu
	if err := b.sym.refactorInto(a, b.lx[lo:lo+b.nl], b.ux[uo:uo+b.nu], work, false, 0); err != nil {
		f, ferr := SparseLUFactor(a, 1)
		if ferr != nil {
			return false, ferr
		}
		b.fresh[k] = f
		return true, nil
	}
	return false, nil
}

// Solve solves slot k's system A_k·x = rhs, using the N-vector work as
// scratch. x and rhs may alias.
//
//mpde:hotpath
func (b *BatchLU) Solve(k int, rhs, x, work []float64) {
	if k < 0 || k >= len(b.fresh) || len(work) < b.sym.n {
		panic(ErrShape)
	}
	if f := b.fresh[k]; f != nil {
		f.solveWith(f.lx, f.ux, rhs, x, work)
		return
	}
	lo, uo := k*b.nl, k*b.nu
	b.sym.solveWith(b.lx[lo:lo+b.nl], b.ux[uo:uo+b.nu], rhs, x, work)
}
