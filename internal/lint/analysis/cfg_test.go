package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strings"
	"testing"
)

// buildCFG parses one function body and builds its CFG.
func buildCFG(t *testing.T, body string) *CFG {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "t.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return NewCFG(f.Decls[0].(*ast.FuncDecl).Body)
}

// markerBlock finds the block containing the call statement `name()`.
func markerBlock(t *testing.T, c *CFG, name string) *Block {
	t.Helper()
	for _, blk := range c.Blocks {
		for _, s := range blk.Stmts {
			es, ok := s.(*ast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				continue
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == name {
				return blk
			}
		}
	}
	t.Fatalf("no block contains %s()", name)
	return nil
}

// preds lists the blocks with an edge into to, once per edge, in block
// order.
func preds(c *CFG, to *Block) []*Block {
	var out []*Block
	for _, blk := range c.Blocks {
		for _, e := range blk.Succs {
			if e.To == to {
				out = append(out, blk)
			}
		}
	}
	return out
}

// reaches reports whether to is reachable from from along Succs.
func reaches(from, to *Block) bool {
	seen := map[*Block]bool{}
	stack := []*Block{from}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if b == to {
			return true
		}
		if seen[b] {
			continue
		}
		seen[b] = true
		for _, e := range b.Succs {
			stack = append(stack, e.To)
		}
	}
	return false
}

func TestCFGIfElseJoins(t *testing.T) {
	c := buildCFG(t, `
	if cond() {
		a()
	} else {
		b()
	}
	after()
`)
	aBlk, bBlk, afterBlk := markerBlock(t, c, "a"), markerBlock(t, c, "b"), markerBlock(t, c, "after")
	for _, blk := range []*Block{aBlk, bBlk} {
		if !reaches(blk, afterBlk) {
			t.Errorf("branch block %d does not reach join", blk.Index)
		}
	}
	if reaches(aBlk, bBlk) || reaches(bBlk, aBlk) {
		t.Error("then and else branches reach each other")
	}
	// The dispatching block carries the condition on both out-edges, with
	// opposite polarity.
	var pols []bool
	for _, e := range c.Entry.Succs {
		if e.Cond == nil {
			t.Fatalf("entry out-edge without condition")
		}
		pols = append(pols, e.Neg)
	}
	if len(pols) != 2 || pols[0] == pols[1] {
		t.Errorf("want one positive and one negative condition edge, got %v", pols)
	}
}

func TestCFGEarlyReturnBypassesTail(t *testing.T) {
	c := buildCFG(t, `
	if cond() {
		early()
		return
	}
	tail()
`)
	earlyBlk, tailBlk := markerBlock(t, c, "early"), markerBlock(t, c, "tail")
	if reaches(earlyBlk, tailBlk) {
		t.Error("return path falls through to the tail")
	}
	if !reaches(earlyBlk, c.Exit) || !reaches(tailBlk, c.Exit) {
		t.Error("both paths must reach Exit")
	}
}

func TestCFGDefersCollected(t *testing.T) {
	c := buildCFG(t, `
	defer a()
	if cond() {
		defer b()
	}
	for i := 0; i < 3; i++ {
		defer c()
	}
`)
	if len(c.Defers) != 3 {
		t.Fatalf("got %d defers, want 3", len(c.Defers))
	}
	// Defers also appear in-line in their blocks.
	inline := 0
	for _, blk := range c.Blocks {
		for _, s := range blk.Stmts {
			if _, ok := s.(*ast.DeferStmt); ok {
				inline++
			}
		}
	}
	if inline != 3 {
		t.Errorf("got %d inline defer statements, want 3", inline)
	}
}

func TestCFGSelectWithoutDefaultBlocks(t *testing.T) {
	c := buildCFG(t, `
	select {
	case <-ch1:
		a()
	case <-ch2:
		b()
	}
	after()
`)
	afterBlk := markerBlock(t, c, "after")
	// Every path into after must pass through a clause: the select head has
	// no direct edge to the join.
	for _, p := range preds(c, afterBlk) {
		found := false
		for _, s := range p.Stmts {
			switch s.(type) {
			case *ast.ExprStmt, *ast.AssignStmt:
				found = true
			}
		}
		if !found {
			t.Errorf("join has a predecessor block %d with no clause statements (select must not bypass its cases)", p.Index)
		}
	}
	if !reaches(markerBlock(t, c, "a"), afterBlk) || !reaches(markerBlock(t, c, "b"), afterBlk) {
		t.Error("clauses must reach the join")
	}
}

func TestCFGSelectDefaultClause(t *testing.T) {
	c := buildCFG(t, `
	select {
	case <-ch:
		a()
	default:
		d()
	}
	after()
`)
	if !reaches(markerBlock(t, c, "d"), markerBlock(t, c, "after")) {
		t.Error("default clause must reach the join")
	}
}

func TestCFGLabeledBreakExitsOuterLoop(t *testing.T) {
	c := buildCFG(t, `
outer:
	for {
		for {
			if cond() {
				break outer
			}
			inner()
		}
	}
	after()
`)
	afterBlk := markerBlock(t, c, "after")
	innerBlk := markerBlock(t, c, "inner")
	if !reaches(c.Entry, afterBlk) {
		t.Error("labeled break does not reach the statement after the outer loop")
	}
	if !reaches(innerBlk, afterBlk) {
		t.Error("inner body cannot reach past the outer loop via break outer")
	}
}

func TestCFGLabeledContinueTargetsOuterLoop(t *testing.T) {
	c := buildCFG(t, `
outer:
	for i := 0; i < n; i++ {
		for {
			if cond() {
				continue outer
			}
			inner()
		}
	}
	after()
`)
	// continue outer must route through the outer post statement (i++): the
	// block holding the continue must reach the block holding the IncDecStmt.
	var contBlk, postBlk *Block
	for _, blk := range c.Blocks {
		for _, s := range blk.Stmts {
			switch s := s.(type) {
			case *ast.BranchStmt:
				if s.Tok == token.CONTINUE {
					contBlk = blk
				}
			case *ast.IncDecStmt:
				postBlk = blk
			}
		}
	}
	if contBlk == nil || postBlk == nil {
		t.Fatal("missing continue or post block")
	}
	if !reaches(contBlk, postBlk) {
		t.Error("continue outer does not reach the outer loop's post statement")
	}
	// The unlabeled inner loop is infinite apart from the continue: inner()
	// must not reach after() without passing the outer head.
	if !reaches(markerBlock(t, c, "inner"), markerBlock(t, c, "after")) {
		t.Error("loop exit unreachable")
	}
}

func TestCFGPanicRoutesToAbort(t *testing.T) {
	c := buildCFG(t, `
	if cond() {
		panic("boom")
	}
	if other() {
		os.Exit(1)
	}
	after()
`)
	if n := len(preds(c, c.Abort)); n != 2 {
		t.Fatalf("Abort has %d preds, want 2 (panic and os.Exit)", n)
	}
	if reaches(c.Abort, c.Exit) {
		t.Error("Abort must not flow into Exit")
	}
	if !reaches(c.Entry, markerBlock(t, c, "after")) {
		t.Error("fallthrough path lost")
	}
}

func TestCFGFallthroughChainsCases(t *testing.T) {
	c := buildCFG(t, `
	switch x {
	case 1:
		a()
		fallthrough
	case 2:
		b()
	default:
		d()
	}
	after()
`)
	aBlk, bBlk, dBlk := markerBlock(t, c, "a"), markerBlock(t, c, "b"), markerBlock(t, c, "d")
	if !reaches(aBlk, bBlk) {
		t.Error("fallthrough does not chain case 1 into case 2")
	}
	if reaches(bBlk, dBlk) {
		t.Error("case 2 must not fall into default without a fallthrough")
	}
	if !reaches(dBlk, markerBlock(t, c, "after")) {
		t.Error("default must reach the join")
	}
}

func TestCFGGotoForwardAndBackward(t *testing.T) {
	c := buildCFG(t, `
	a()
	goto done
	skipped()
done:
	b()
`)
	if reaches(markerBlock(t, c, "a"), markerBlock(t, c, "skipped")) {
		t.Error("goto must bypass the skipped statement")
	}
	if !reaches(markerBlock(t, c, "a"), markerBlock(t, c, "b")) {
		t.Error("goto target unreachable")
	}
}

// TestForwardSolveMustAssign runs a definite-assignment analysis: the fact
// is the set of variable names assigned on every path. It exercises joins
// (set intersection), loop fixpoints, and statement transfer.
func TestForwardSolveMustAssign(t *testing.T) {
	c := buildCFG(t, `
	x := 1
	if cond() {
		y := 2
		_ = y
	} else {
		z := 3
		_ = z
	}
	w := 4
	_ = x
	_ = w
`)
	assignNames := func(s ast.Stmt) []string {
		as, ok := s.(*ast.AssignStmt)
		if !ok {
			return nil
		}
		var names []string
		for _, l := range as.Lhs {
			if id, ok := l.(*ast.Ident); ok && id.Name != "_" {
				names = append(names, id.Name)
			}
		}
		return names
	}
	fl := Flow{
		Bottom: func() any { return map[string]bool{} },
		Join: func(a, b any) any {
			am, bm := a.(map[string]bool), b.(map[string]bool)
			out := map[string]bool{}
			for k := range am {
				if bm[k] {
					out[k] = true
				}
			}
			return out
		},
		Equal: func(a, b any) bool {
			am, bm := a.(map[string]bool), b.(map[string]bool)
			if len(am) != len(bm) {
				return false
			}
			for k := range am {
				if !bm[k] {
					return false
				}
			}
			return true
		},
		Transfer: func(s ast.Stmt, fact any) any {
			names := assignNames(s)
			if len(names) == 0 {
				return fact
			}
			out := map[string]bool{}
			for k := range fact.(map[string]bool) {
				out[k] = true
			}
			for _, n := range names {
				out[n] = true
			}
			return out
		},
	}
	in := c.ForwardSolve(fl)
	atExit := in[c.Exit.Index].(map[string]bool)
	var got []string
	for k := range atExit {
		got = append(got, k)
	}
	sort.Strings(got)
	want := "w x"
	if s := strings.Join(got, " "); s != want {
		t.Errorf("definitely-assigned at exit = %q, want %q (y and z are branch-local)", s, want)
	}
}

// TestForwardSolveCondRefinement checks TransferCond: facts can differ per
// branch polarity of the same condition.
func TestForwardSolveCondRefinement(t *testing.T) {
	c := buildCFG(t, `
	if err != nil {
		a()
		return
	}
	b()
`)
	type fact struct{ errKnownNil bool }
	fl := Flow{
		Bottom: func() any { return fact{} },
		Join: func(a, b any) any {
			af, bf := a.(fact), b.(fact)
			return fact{errKnownNil: af.errKnownNil && bf.errKnownNil}
		},
		Equal:    func(a, b any) bool { return a.(fact) == b.(fact) },
		Transfer: func(s ast.Stmt, f any) any { return f },
		TransferCond: func(cond ast.Expr, neg bool, f any) any {
			be, ok := cond.(*ast.BinaryExpr)
			if !ok || be.Op != token.NEQ {
				return f
			}
			// err != nil held false → err is nil on this edge.
			if neg {
				return fact{errKnownNil: true}
			}
			return fact{errKnownNil: false}
		},
	}
	in := c.ForwardSolve(fl)
	aBlk, bBlk := markerBlock(t, c, "a"), markerBlock(t, c, "b")
	if in[aBlk.Index].(fact).errKnownNil {
		t.Error("err != nil branch must not see errKnownNil")
	}
	if !in[bBlk.Index].(fact).errKnownNil {
		t.Error("fallthrough edge must see errKnownNil")
	}
}
