package la

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// SparseLU is a left-looking sparse LU factorisation with threshold partial
// pivoting (Gilbert–Peierls, in the style of CSparse's cs_lu): P·A·Q = L·U,
// with L unit lower triangular. Both factors are stored column-wise.
//
// The column order Q is an approximate-minimum-degree ordering of the
// pattern of A+Aᵀ (amdOrder), computed once per symbolic analysis; the row
// order P comes from the threshold pivot, which prefers the permuted
// diagonal. On the MPDE torus Jacobians this keeps the fill a fraction of
// what the natural column order gives.
//
// A factorisation remembers its symbolic analysis — the orderings, the
// elimination pattern and the column view of A — so a matrix with the same
// sparsity pattern but new values can be re-decomposed by Refactor at the
// cost of the numeric phase alone. This is the hot-path configuration of the
// MPDE Newton iteration, whose Jacobian pattern is fixed across iterations.
type SparseLU struct {
	n          int
	lp, li     []int
	lx         []float64
	up, ui     []int
	ux         []float64
	pinv       []int // original row i is pivotal for column pinv[i]
	q          []int // column k of the factorisation is column q[k] of A
	FillFactor float64

	// Symbolic-reuse state: the pattern the factorisation was computed
	// from (the caller's slices, which are never rewritten in place; see
	// SamePattern) and the CSC view of A, in q order, with a gather map
	// into the CSR value array.
	aRowPtr, aColIdx []int
	atp, ati, atMap  []int
	work             []float64 // refactor scratch, zero between columns
	swork            []float64 // solve scratch
}

// cscView returns the column view of a in the column order q — view column k
// is column q[k] of a, rows ascending — with a gather map back into a.Val.
func cscView(a *CSR, q []int) (atp, ati, atMap []int, atv []float64) {
	n := a.Cols
	nnz := a.NNZ()
	next := make([]int, n) // entries per column of a, then the next free slot
	for _, j := range a.ColIdx {
		next[j]++
	}
	atp = make([]int, n+1)
	for k, j := range q {
		atp[k+1] = atp[k] + next[j]
	}
	for k, j := range q {
		next[j] = atp[k]
	}
	ati = make([]int, nnz)
	atMap = make([]int, nnz)
	atv = make([]float64, nnz)
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColIdx[k]
			p := next[j]
			ati[p] = i
			atMap[p] = k
			atv[p] = a.Val[k]
			next[j]++
		}
	}
	return atp, ati, atMap, atv
}

// SparseLUFactor computes P·A·Q = L·U, with Q a fill-reducing column order
// and P from threshold partial pivoting. tol in (0,1] controls diagonal
// preference: the permuted diagonal entry a(q[k],q[k]) is kept as pivot
// when its magnitude is at least tol·max|column|; tol=1 is classic partial
// pivoting, tol≈0.001 keeps fill low on diagonally dominant MNA systems.
// A must be square.
//
// The symbolic analysis — both orders, the L/U structure and the CSC view
// of A — is reused across calls through a process-wide table keyed by the
// pattern's content and the normalised tol, bounded to symbolicCacheBytes
// with least-recently-used eviction (see symcache.go). A hit skips the
// ordering and the DFS: it runs a pivot-verified refactor, the numeric
// elimination in the recorded order that checks at every column that the
// threshold rule above would have picked the recorded pivot. Candidates
// are the pivot row and the rows of L(:,k), and amax their largest |x|
// (NaNs skipped). A recorded diagonal pivot must pass the rule itself,
// amax > 0 and |x_d| ≥ tol·amax. A recorded off-diagonal pivot needs the
// diagonal to be already pivotal or to fail that test, and must be the
// strict unique maximum, since a tie is broken by DFS order. The DFS, the
// symmetric pruning and the elimination order depend only on the pattern
// and the pivot sequence, so a verified refactor reproduces pinv, the L/U
// structure and every bit of a fresh factorisation. Any failed check falls
// back to the fresh factorisation, which then replaces the table's entry:
// the result is bit-identical either way.
func SparseLUFactor(a *CSR, tol float64) (*SparseLU, error) {
	if a.Rows != a.Cols {
		return nil, ErrShape
	}
	if tol <= 0 || tol > 1 {
		tol = 1
	}
	return symbolic.factor(a, tol)
}

// factorFresh is SparseLUFactor without the table: ordering, DFS and
// threshold pivoting from scratch. tol is already normalised.
func factorFresh(a *CSR, tol float64) (*SparseLU, error) {
	n := a.Rows
	q := amdOrder(a)
	atp, ati, atMap, atv := cscView(a, q)

	lp := make([]int, n+1)
	up := make([]int, n+1)
	pinv := make([]int, n)
	for i := range pinv {
		pinv[i] = -1
	}
	// A first guess at the factors' size; append grows past it.
	est := 2*len(ati) + n
	li, lx := make([]int, 0, est), make([]float64, 0, est)
	ui, ux := make([]int, 0, est), make([]float64, 0, est)
	x := make([]float64, n)  // dense column, zero outside the current pattern
	xi := make([]int, n)     // topological pattern of the sparse solve
	stack := make([]int, n)  // DFS stack of nodes
	pstack := make([]int, n) // DFS stack of child positions
	mark := make([]int, n)   // visitation stamps: column k stamps k+1
	// lpend[j] ≥ 0 ends the part of L(:,j) the DFS still has to scan once
	// the column has been symmetrically pruned (Eisenstat & Liu): rows of
	// L(:,j) past it are reachable through a later column anyway.
	lpend := make([]int, n)
	for j := range lpend {
		lpend[j] = -1
	}

	for k := 0; k < n; k++ {
		// --- symbolic: pattern of x = L \ A(:,q[k]) via DFS over L's columns ---
		stamp := k + 1
		top := n
		for _, root := range ati[atp[k]:atp[k+1]] {
			if mark[root] == stamp {
				continue
			}
			// Iterative DFS with explicit child-position stack. L's row
			// indices are still in original numbering here.
			head := 0
			stack[0] = root
			for head >= 0 {
				j := stack[head]
				jn := pinv[j]
				if mark[j] != stamp {
					mark[j] = stamp
					pstack[head] = 0 // no children unless j is pivotal
					if jn >= 0 {
						pstack[head] = lp[jn] + 1 // skip unit diagonal entry
					}
				}
				done := true
				if jn >= 0 {
					end := lp[jn+1]
					if lpend[jn] >= 0 {
						end = lpend[jn]
					}
					for pp := pstack[head]; pp < end; pp++ {
						if child := li[pp]; mark[child] != stamp {
							pstack[head] = pp + 1
							head++
							stack[head] = child
							done = false
							break
						}
					}
				}
				if done {
					head--
					top--
					xi[top] = j
				}
			}
		}
		pattern := xi[top:]
		// --- numeric: scatter A(:,q[k]) and run the sparse triangular solve ---
		for p := atp[k]; p < atp[k+1]; p++ {
			x[ati[p]] = atv[p]
		}
		for _, j := range pattern {
			jn := pinv[j]
			if jn < 0 {
				continue
			}
			xj := x[j] // L has unit diagonal; no division
			if xj == 0 {
				continue
			}
			lo, hi := lp[jn]+1, lp[jn+1]
			rows, vals := li[lo:hi], lx[lo:hi]
			vals = vals[:len(rows)]
			for t, r := range rows {
				x[r] -= vals[t] * xj
			}
		}
		// --- pivot selection among not-yet-pivotal rows ---
		ipiv, amax := -1, 0.0
		for _, j := range pattern {
			if pinv[j] < 0 {
				if v := math.Abs(x[j]); v > amax {
					ipiv, amax = j, v
				}
			}
		}
		if ipiv < 0 || amax == 0 {
			return nil, fmt.Errorf("%w (column %d)", ErrSingular, q[k])
		}
		// Prefer the permuted diagonal when it is acceptably large (reduces
		// fill). x is zero off the pattern, so a diagonal outside it loses.
		if d := q[k]; pinv[d] < 0 && math.Abs(x[d]) >= tol*amax {
			ipiv = d
		}
		pivot := x[ipiv]
		pinv[ipiv] = k
		// --- append column k of U (pivotal rows) and L (non-pivotal rows),
		// clearing x for the next column ---
		li = append(li, ipiv) // unit diagonal of L, stored first
		lx = append(lx, 1)
		for _, j := range pattern {
			switch jn := pinv[j]; {
			case j == ipiv:
			case jn >= 0:
				ui = append(ui, jn)
				ux = append(ux, x[j])
			default:
				li = append(li, j)
				lx = append(lx, x[j]/pivot)
			}
			x[j] = 0
		}
		// U's off-diagonal entries stay in the order the solve above used
		// them, which is topological: Refactor replays it as is.
		ui = append(ui, k) // diagonal of U, stored last in its column
		ux = append(ux, pivot)
		up[k+1] = len(ux)
		lp[k+1] = len(lx)
		// --- symmetric pruning: a column j of L with u_jk ≠ 0 and
		// l_(ipiv)j ≠ 0 only needs its already-pivotal rows in later DFS ---
		for _, j := range ui[up[k] : up[k+1]-1] {
			if lpend[j] >= 0 {
				continue
			}
			lo, hi := lp[j]+1, lp[j+1]
			rows := li[lo:hi]
			if !slices.Contains(rows, ipiv) {
				continue
			}
			vals := lx[lo:hi]
			vals = vals[:len(rows)]
			head, tail := 0, len(rows)
			for head < tail {
				if pinv[rows[head]] >= 0 {
					head++
					continue
				}
				tail--
				rows[head], rows[tail] = rows[tail], rows[head]
				vals[head], vals[tail] = vals[tail], vals[head]
			}
			lpend[j] = lo + tail
		}
	}
	// Remap L's row indices from original numbering to pivotal numbering.
	for p, r := range li {
		li[p] = pinv[r]
	}
	f := &SparseLU{n: n,
		lp: lp, li: li, lx: lx,
		up: up, ui: ui, ux: ux,
		pinv: pinv, q: q,
		aRowPtr: a.RowPtr,
		aColIdx: a.ColIdx,
		atp:     atp, ati: ati, atMap: atMap}
	if nnz := a.NNZ(); nnz > 0 {
		f.FillFactor = float64(len(lx)+len(ux)) / float64(nnz)
	}
	return f, nil
}

// refactorGrowth bounds the element growth a pivot-order-preserving
// refactorisation accepts before bailing out to a fresh factorisation.
const refactorGrowth = 1e8

// SamePattern reports whether a has exactly the sparsity pattern this
// factorisation was computed from. A pattern, once handed to a
// BlockStencil or a SparseLU, is never rewritten in place: compiled stamps
// and block stencils allocate a fresh one when the structure changes. So the
// common case — the very slices factored before — is decided in O(1) by
// identity; an equal pattern in other slices falls back to an O(nnz)
// compare. A factorisation served from the symbolic table holds the
// caller's slices, so its later checks take the O(1) path too.
func (f *SparseLU) SamePattern(a *CSR) bool {
	return a.Rows == f.n && a.Cols == f.n &&
		samePattern(a.RowPtr, a.ColIdx, f.aRowPtr, f.aColIdx)
}

// samePattern compares two CSR patterns, by slice identity (same length,
// same first element) first and by content when that misses.
func samePattern(rowPtr, colIdx, rowPtr0, colIdx0 []int) bool {
	if sameSlice(rowPtr, rowPtr0) && sameSlice(colIdx, colIdx0) {
		return true
	}
	return slices.Equal(rowPtr, rowPtr0) && slices.Equal(colIdx, colIdx0)
}

func sameSlice(a, b []int) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// Refactor recomputes the numeric factorisation for a matrix with the same
// sparsity pattern as the one the factorisation was created from, reusing
// the symbolic analysis and both orders. It costs one sparse triangular
// sweep — no ordering, no DFS, no pivot search, no allocation — which is the
// payoff for Jacobians whose pattern is fixed across Newton iterations. It
// fails (and leaves the factors unusable) when the pattern differs, a pivot
// vanishes, or element growth exceeds a stability bound; callers then fall
// back to SparseLUFactor.
//
// Refactor keeps the frozen pivot order whatever the values, so its factors
// may differ from a fresh factorisation of the same matrix. SparseLUFactor's
// reuse of a table entry is the other kind of refactor: it checks every
// pivot against the threshold rule and is bit-identical to a fresh factor.
//
//mpde:hotpath
func (f *SparseLU) Refactor(a *CSR) error {
	if f.work == nil { //mpde:alloc-ok lazy scratch init, amortised over refactors
		f.work = make([]float64, f.n)
	}
	return f.refactorInto(a, f.lx, f.ux, f.work, false, 0)
}

// errPivotMoved reports a pivot-verified refactor whose values would make
// threshold pivoting pick another pivot than the recorded one.
var errPivotMoved = errors.New("la: recorded pivot order does not match threshold pivoting")

// refactorInto runs the numeric-only refactorisation against the shared
// symbolic analysis, writing the factors into lx/ux (which must have the
// factorisation's own layout — either its private arrays or a batch slot
// initialised from them). L's unit-diagonal positions are never rewritten,
// so destination slots must already carry the 1s. work is an n-vector of
// scratch that must be zero on entry; it is zero again on return, so one
// scratch serves any number of refactors. Refactors into distinct lx/ux
// with distinct scratch may run concurrently: the symbolic analysis is
// only read.
//
// With verify set, each column's recorded pivot must be the one threshold
// pivoting with tol would pick (pivotHolds) instead of passing the growth
// bound; a column that fails returns errPivotMoved.
//
//mpde:hotpath
func (f *SparseLU) refactorInto(a *CSR, lx, ux, work []float64, verify bool, tol float64) error {
	if !f.SamePattern(a) { //mpde:coldpath pattern mismatch aborts the refactor
		return fmt.Errorf("la: refactor pattern mismatch (want the factored %d×%d pattern)", f.n, f.n)
	}
	n := f.n
	// Local views of the symbolic analysis: the loops below read no fields
	// and, with the lengths pinned, index the value arrays without bounds
	// checks.
	x := work[:n]
	lp, li := f.lp[:n+1], f.li
	up, ui := f.up[:n+1], f.ui
	atp, ati := f.atp[:n+1], f.ati
	atMap := f.atMap[:len(ati)]
	pinv := f.pinv[:n]
	av := a.Val
	lx, ux = lx[:len(li)], ux[:len(ui)]
	for k := 0; k < n; k++ {
		// Scatter A(:,q[k]) in pivotal numbering; x is zero elsewhere.
		for p := atp[k]; p < atp[k+1]; p++ {
			x[pinv[ati[p]]] = av[atMap[p]]
		}
		// Eliminate with the already-refactored columns in the order the
		// factorisation used, which is topological: x[j] is final when read
		// (no later update touches it), so it is cleared at once. With the
		// same values this reproduces the factorisation bit for bit.
		ud := up[k+1] - 1
		for p := up[k]; p < ud; p++ {
			j := ui[p]
			xj := x[j]
			ux[p] = xj
			x[j] = 0
			if xj == 0 {
				continue
			}
			lo, hi := lp[j]+1, lp[j+1]
			rows, vals := li[lo:hi], lx[lo:hi]
			vals = vals[:len(rows)]
			for t, r := range rows {
				x[r] -= vals[t] * xj
			}
		}
		pivot := x[k]
		x[k] = 0
		lo, hi := lp[k]+1, lp[k+1]
		rows, vals := li[lo:hi], lx[lo:hi]
		vals = vals[:len(rows)]
		maxBelow := 0.0
		for _, r := range rows {
			if v := math.Abs(x[r]); v > maxBelow {
				maxBelow = v
			}
		}
		if verify {
			if !f.pivotHolds(k, pivot, maxBelow, x, tol) {
				clear(x)
				return errPivotMoved
			}
		} else if pivot == 0 || math.IsNaN(pivot) || maxBelow > refactorGrowth*math.Abs(pivot) { //mpde:coldpath singular pivot aborts the refactor
			clear(x) // leave the scratch zero for the next refactor
			return fmt.Errorf("%w (refactor: unstable pivot %.3e at column %d)", ErrSingular, pivot, f.q[k])
		}
		ux[ud] = pivot
		for t, r := range rows {
			vals[t] = x[r] / pivot
			x[r] = 0
		}
	}
	return nil
}

// pivotHolds reports whether threshold pivoting with tol, run on column k
// of a refactor in progress, would pick the recorded pivot. pivot is the
// recorded pivot's value, maxBelow the largest |x| over the rows of L(:,k)
// (NaNs skipped) and x the column, in pivotal numbering, with those rows
// still in place. It mirrors factorFresh's selection: the strict v > amax
// scan that skips NaNs, then the diagonal preference |x_d| ≥ tol·amax.
func (f *SparseLU) pivotHolds(k int, pivot, maxBelow float64, x []float64, tol float64) bool {
	p := math.Abs(pivot)
	amax := maxBelow
	if p > amax {
		amax = p
	}
	if !(amax > 0) {
		return false // singular column: let the fresh factorisation say so
	}
	d := f.pinv[f.q[k]] // the diagonal row's pivotal index
	if d == k {
		return p >= tol*amax
	}
	// An off-diagonal pivot needs the diagonal to lose the threshold test,
	// when it is still a candidate (x is zero at a structurally absent
	// one), and must be the strict maximum: the fresh scan breaks a tie by
	// DFS order, which the refactor does not know.
	if d > k && math.Abs(x[d]) >= tol*amax {
		return false
	}
	return p > maxBelow
}

// Solve solves A·x = b. x and b may alias. The factorisation owns the solve
// scratch, so repeated calls do not allocate — but two goroutines must not
// Solve through the same factorisation concurrently.
//
//mpde:hotpath
func (f *SparseLU) Solve(b, x []float64) {
	if f.swork == nil { //mpde:alloc-ok lazy scratch init, amortised over solves
		f.swork = make([]float64, f.n)
	}
	f.solveWith(f.lx, f.ux, b, x, f.swork)
}

// solveWith runs the triangular solves against the given value arrays
// (the factorisation's own, or a batch slot sharing its layout), using the
// n-vector work as scratch.
//
//mpde:hotpath
func (f *SparseLU) solveWith(lx, ux, b, x, work []float64) {
	n := f.n
	if len(b) != n || len(x) != n {
		panic(ErrShape)
	}
	y := work[:n]
	lp, li := f.lp[:n+1], f.li
	up, ui := f.up[:n+1], f.ui
	lx, ux = lx[:len(li)], ux[:len(ui)]
	for i, r := range f.pinv[:n] {
		y[r] = b[i]
	}
	// Forward: L·z = P·b (unit diagonal first in each column).
	for j := 0; j < n; j++ {
		yj := y[j]
		if yj == 0 {
			continue
		}
		lo, hi := lp[j]+1, lp[j+1]
		rows, vals := li[lo:hi], lx[lo:hi]
		vals = vals[:len(rows)]
		for t, r := range rows {
			y[r] -= vals[t] * yj
		}
	}
	// Backward: U·z' = z (diagonal last in each column).
	for j := n - 1; j >= 0; j-- {
		lo, hi := up[j], up[j+1]-1
		yj := y[j] / ux[hi]
		y[j] = yj
		if yj == 0 {
			continue
		}
		rows, vals := ui[lo:hi], ux[lo:hi]
		vals = vals[:len(rows)]
		for t, r := range rows {
			y[r] -= vals[t] * yj
		}
	}
	// x = Q·z': y is private scratch, so b and x may alias.
	for k, c := range f.q[:n] {
		x[c] = y[k]
	}
}

// NNZ returns the total stored entries in L and U.
func (f *SparseLU) NNZ() int { return len(f.lx) + len(f.ux) }
