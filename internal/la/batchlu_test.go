package la

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// batchFamily builds count same-pattern matrices with different values,
// shaped like the banded MPDE line Jacobians the batch path targets.
func batchFamily(n, count int, seed int64) []*CSR {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*CSR, count)
	for c := 0; c < count; c++ {
		tr := NewTriplet(n, n)
		for i := 0; i < n; i++ {
			tr.Append(i, i, 5+rng.Float64())
			for _, off := range []int{-2, -1, 1, 2} {
				if j := i + off; j >= 0 && j < n {
					tr.Append(i, j, rng.NormFloat64())
				}
			}
		}
		out[c] = tr.Compress()
	}
	return out
}

func TestBatchLUMatchesFreshFactorisation(t *testing.T) {
	const n, count = 60, 8
	fam := batchFamily(n, count, 7)
	b, err := NewBatchLU(fam[0], 0.001, count)
	if err != nil {
		t.Fatal(err)
	}
	if b.N() != n {
		t.Fatalf("N() = %d, want %d", b.N(), n)
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = math.Sin(float64(i + 1))
	}
	work := make([]float64, n)
	for c, a := range fam {
		fb, err := b.Refactor(c, a, work)
		if err != nil {
			t.Fatalf("Refactor(%d): %v", c, err)
		}
		if fb {
			t.Fatalf("slot %d fell back to a fresh factorisation", c)
		}
	}
	x := make([]float64, n)
	want := make([]float64, n)
	for c, a := range fam {
		b.Solve(c, rhs, x, work)
		ref, err := SparseLUFactor(a, 0.001)
		if err != nil {
			t.Fatal(err)
		}
		ref.Solve(rhs, want)
		for i := range x {
			if math.Abs(x[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("slot %d: x[%d] = %v, want %v", c, i, x[i], want[i])
			}
		}
	}
}

// fallbackPair returns a 2×2 representative and a same-pattern matrix with a
// tiny (0,0) entry: the representative keeps the diagonal pivots, and the
// tiny entry makes that frozen order's growth 1/1e-12 ≫ refactorGrowth.
func fallbackPair() (rep, bad *CSR) {
	build := func(a00 float64) *CSR {
		tr := NewTriplet(2, 2)
		tr.Append(0, 0, a00)
		tr.Append(0, 1, 1)
		tr.Append(1, 0, 1)
		tr.Append(1, 1, 2)
		return tr.Compress()
	}
	return build(1), build(1e-12)
}

// TestBatchLUFallbackSlot drives one slot through the frozen-pivot growth
// bailout. The slot must silently re-pivot via a fresh factorisation and
// still solve correctly.
func TestBatchLUFallbackSlot(t *testing.T) {
	rep, bad := fallbackPair()
	b, err := NewBatchLU(rep, 0.001, 2)
	if err != nil {
		t.Fatal(err)
	}
	work := make([]float64, 2)
	if fb, err := b.Refactor(0, rep, work); err != nil || fb {
		t.Fatalf("Refactor(0) = %v, %v; want shared-analysis reuse", fb, err)
	}
	fb, err := b.Refactor(1, bad, work)
	if err != nil {
		t.Fatalf("fallback Refactor: %v", err)
	}
	if !fb {
		t.Fatal("the unstable slot did not report a fallback")
	}
	x := make([]float64, 2)
	b.Solve(1, []float64{1, 0}, x, work)
	// Exact inverse of [[1e-12,1],[1,2]]·x = [1,0].
	r0 := 1e-12*x[0] + x[1] - 1
	r1 := x[0] + 2*x[1]
	if math.Abs(r0) > 1e-9 || math.Abs(r1) > 1e-9 {
		t.Fatalf("fallback slot residual (%v, %v)", r0, r1)
	}
}

// TestBatchLURefactorOverwritesSlots: a second round of refactors into the
// same slots — one of them a former fallback slot — must solve like fresh
// factorisations of the new matrices.
func TestBatchLURefactorOverwritesSlots(t *testing.T) {
	rep, bad := fallbackPair()
	b, err := NewBatchLU(rep, 0.001, 1)
	if err != nil {
		t.Fatal(err)
	}
	work := make([]float64, 2)
	if fb, err := b.Refactor(0, bad, work); err != nil || !fb {
		t.Fatalf("Refactor(bad) = %v, %v; want a fallback", fb, err)
	}
	if fb, err := b.Refactor(0, rep, work); err != nil || fb {
		t.Fatalf("Refactor(rep) = %v, %v; want the shared path back", fb, err)
	}
	x := make([]float64, 2)
	b.Solve(0, []float64{1, 0}, x, work)
	// Exact inverse of [[1,1],[1,2]]·x = [1,0] is (2, −1).
	if math.Abs(x[0]-2) > 1e-12 || math.Abs(x[1]+1) > 1e-12 {
		t.Fatalf("slot after the second round solves to %v, want (2, -1)", x)
	}

	fam := batchFamily(40, 4, 11)
	bl, err := NewBatchLU(fam[0], 0.001, 4)
	if err != nil {
		t.Fatal(err)
	}
	work = make([]float64, 40)
	for c, a := range fam {
		if _, err := bl.Refactor(c, a, work); err != nil {
			t.Fatal(err)
		}
	}
	fam2 := batchFamily(40, 4, 13)
	rhs := make([]float64, 40)
	for i := range rhs {
		rhs[i] = float64(i%5) - 2
	}
	x, want := make([]float64, 40), make([]float64, 40)
	for c, a := range fam2 {
		if _, err := bl.Refactor(c, a, work); err != nil {
			t.Fatal(err)
		}
		bl.Solve(c, rhs, x, work)
		ref, _ := SparseLUFactor(a, 0.001)
		ref.Solve(rhs, want)
		for i := range x {
			if math.Abs(x[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
				t.Fatalf("round 2 slot %d: x[%d] = %v, want %v", c, i, x[i], want[i])
			}
		}
	}
}

func TestBatchLURefactorRejectsPatternMismatch(t *testing.T) {
	fam := batchFamily(20, 1, 3)
	b, err := NewBatchLU(fam[0], 0.001, 1)
	if err != nil {
		t.Fatal(err)
	}
	other := batchFamily(21, 1, 3)[0]
	if _, err := b.Refactor(0, other, make([]float64, 21)); err == nil {
		t.Fatal("Refactor accepted a different pattern")
	}
}

// TestBatchLUConcurrentSlotsMatchSerial: slots refactored and solved from
// concurrent goroutines, each with one scratch for both — one slot forced
// onto the fresh-factor fallback — give the serial pass's solutions bit for
// bit and the same reuse/fallback counts. The MNA-like family fills in, so
// a refactor that trusted scratch left dirty by a solve would go wrong.
func TestBatchLUConcurrentSlotsMatchSerial(t *testing.T) {
	const count, badSlot = 12, 5
	spec := mnaSpec{nodes: 60, sources: 6, links: 100, vccs: 12}
	fam := make([]*CSR, count)
	for k := range fam {
		fam[k] = mnaMatrix(spec, 31, int64(k+1))
	}
	probe, err := NewBatchLU(fam[0], 0.001, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := probe.N()
	// Shrink one pivot entry the frozen order relies on — the first, in
	// factor order, whose loss makes the refactor unstable: same pattern,
	// but the representative's pivot sequence fails on this slot.
	bad := &CSR{Rows: n, Cols: n, RowPtr: fam[badSlot].RowPtr, ColIdx: fam[badSlot].ColIdx}
	work := make([]float64, n)
	for k, fell := 0, false; !fell; k++ {
		if k == n {
			t.Fatal("no single pivot entry forces a fallback")
		}
		bad.Val = append(bad.Val[:0], fam[badSlot].Val...)
		r := slices.Index(probe.sym.pinv, k)
		for p := bad.RowPtr[r]; p < bad.RowPtr[r+1]; p++ {
			if bad.ColIdx[p] == probe.sym.q[k] {
				bad.Val[p] = 1e-14
			}
		}
		fell, _ = probe.Refactor(0, bad, work)
	}
	fam[badSlot] = bad
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = math.Cos(float64(3 * i))
	}
	type result struct {
		x                     [][]float64
		refactored, fallbacks int
	}
	run := func(workers int) result {
		b, err := NewBatchLU(fam[0], 0.001, count)
		if err != nil {
			t.Fatal(err)
		}
		res := result{x: make([][]float64, count)}
		fell := make([]bool, count)
		errs := make([]error, count)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				work := make([]float64, n)
				for k := w; k < count; k += workers {
					if fell[k], errs[k] = b.Refactor(k, fam[k], work); errs[k] != nil {
						return
					}
					res.x[k] = make([]float64, n)
					b.Solve(k, rhs, res.x[k], work)
				}
			}(w)
		}
		wg.Wait()
		for k := range fell {
			if errs[k] != nil {
				t.Fatalf("workers=%d: slot %d: %v", workers, k, errs[k])
			}
			if fell[k] {
				res.fallbacks++
			} else {
				res.refactored++
			}
			checkAgainstDense(t, "batch slot", fam[k], rhs, res.x[k])
		}
		return res
	}
	serial := run(1)
	if serial.fallbacks != 1 || serial.refactored != count-1 {
		t.Fatalf("serial Refactored/Fallbacks = %d/%d, want %d/1", serial.refactored, serial.fallbacks, count-1)
	}
	for _, workers := range []int{2, 3, 4} {
		par := run(workers)
		if par.refactored != serial.refactored || par.fallbacks != serial.fallbacks {
			t.Fatalf("workers=%d: Refactored/Fallbacks = %d/%d, serial %d/%d",
				workers, par.refactored, par.fallbacks, serial.refactored, serial.fallbacks)
		}
		for k := range serial.x {
			for i, v := range serial.x[k] {
				if math.Float64bits(par.x[k][i]) != math.Float64bits(v) {
					t.Fatalf("workers=%d: slot %d x[%d] = %v, serial %v", workers, k, i, par.x[k][i], v)
				}
			}
		}
	}
}
