package analysis

import (
	"go/ast"
	"go/token"
)

// This file is the dataflow tier of the lint framework: an intraprocedural
// control-flow graph over go/ast function bodies plus a generic fixpoint
// solver. The CFG is purely syntactic — no type information — so it can be
// unit-tested on parsed snippets; analyzers layer types on top inside their
// transfer functions.
//
// Granularity: blocks hold statements. Branch conditions do not live in any
// block; they annotate the out-edges of the block that evaluates them, so a
// flow analysis can refine facts per branch (TransferCond) — the mechanism
// behind "this path only runs when err != nil".
//
// Exits: every return edge leads to Exit; panic, runtime.Goexit, os.Exit and
// log.Fatal* edges lead to the Abort sink. Lifecycle-style analyses check
// obligations at Exit only — an unwinding or dying process is not a resource
// leak the analyzer should charge to the function.

// A CFG is the control-flow graph of one function body.
type CFG struct {
	// Blocks lists every block, Entry first. Unreachable blocks (after a
	// terminator) may appear; the solver never visits them.
	Blocks []*Block
	// Entry is where control enters the body.
	Entry *Block
	// Exit is the normal-return sink: returns and falling off the end.
	Exit *Block
	// Abort is the abnormal sink: panic, os.Exit, log.Fatal*, Goexit.
	Abort *Block
	// Defers lists every defer statement in the body, in source order.
	// Defers also appear in their blocks as ordinary statements.
	Defers []*ast.DeferStmt
}

// A Block is a straight-line statement sequence.
type Block struct {
	Index int
	Stmts []ast.Stmt
	Succs []Edge
}

// An Edge is one control transfer. When Cond is non-nil the edge is taken
// only when Cond evaluates to true (Neg=false) or false (Neg=true).
type Edge struct {
	To   *Block
	Cond ast.Expr
	Neg  bool
}

// branchFrame is one enclosing breakable/continuable construct.
type branchFrame struct {
	label string
	brk   *Block // break target (loops, switch, select)
	cont  *Block // continue target (loops only)
}

type cfgBuilder struct {
	cfg    *CFG
	cur    *Block
	frames []branchFrame
	labels map[string]*Block // goto/label targets, created on demand
	falls  []*Block          // fallthrough targets, innermost last
}

// NewCFG builds the CFG of one function body.
func NewCFG(body *ast.BlockStmt) *CFG {
	c := &CFG{}
	b := &cfgBuilder{cfg: c, labels: map[string]*Block{}}
	c.Entry = b.newBlock()
	c.Exit = b.newBlock()
	c.Abort = b.newBlock()
	b.cur = c.Entry
	b.stmtList(body.List)
	b.edge(b.cur, c.Exit, nil, false)
	return c
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block, cond ast.Expr, neg bool) {
	from.Succs = append(from.Succs, Edge{To: to, Cond: cond, Neg: neg})
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s, "")
	case *ast.RangeStmt:
		b.rangeStmt(s, "")
	case *ast.SwitchStmt:
		b.switchStmt(s, "")
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s, "")
	case *ast.SelectStmt:
		b.selectStmt(s, "")
	case *ast.LabeledStmt:
		b.labeledStmt(s)
	case *ast.ReturnStmt:
		b.cur.Stmts = append(b.cur.Stmts, s)
		b.edge(b.cur, b.cfg.Exit, nil, false)
		b.cur = b.newBlock()
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.DeferStmt:
		b.cfg.Defers = append(b.cfg.Defers, s)
		b.cur.Stmts = append(b.cur.Stmts, s)
	default:
		b.cur.Stmts = append(b.cur.Stmts, s)
		if aborts(s) {
			b.edge(b.cur, b.cfg.Abort, nil, false)
			b.cur = b.newBlock()
		}
	}
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	head := b.cur
	then := b.newBlock()
	after := b.newBlock()
	b.edge(head, then, s.Cond, false)
	b.cur = then
	b.stmtList(s.Body.List)
	b.edge(b.cur, after, nil, false)
	if s.Else != nil {
		els := b.newBlock()
		b.edge(head, els, s.Cond, true)
		b.cur = els
		b.stmt(s.Else)
		b.edge(b.cur, after, nil, false)
	} else {
		b.edge(head, after, s.Cond, true)
	}
	b.cur = after
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	head := b.newBlock()
	b.edge(b.cur, head, nil, false)
	body := b.newBlock()
	after := b.newBlock()
	post := head
	if s.Post != nil {
		post = b.newBlock()
	}
	if s.Cond != nil {
		b.edge(head, body, s.Cond, false)
		b.edge(head, after, s.Cond, true)
	} else {
		b.edge(head, body, nil, false)
	}
	b.frames = append(b.frames, branchFrame{label: label, brk: after, cont: post})
	b.cur = body
	b.stmtList(s.Body.List)
	b.frames = b.frames[:len(b.frames)-1]
	b.edge(b.cur, post, nil, false)
	if s.Post != nil {
		b.cur = post
		b.cur.Stmts = append(b.cur.Stmts, s.Post)
		b.edge(b.cur, head, nil, false)
	}
	b.cur = after
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt, label string) {
	head := b.newBlock()
	b.edge(b.cur, head, nil, false)
	// The RangeStmt itself sits in the head block so transfer functions see
	// the per-iteration key/value assignment and the ranged expression.
	head.Stmts = append(head.Stmts, s)
	body := b.newBlock()
	after := b.newBlock()
	b.edge(head, body, nil, false)
	b.edge(head, after, nil, false)
	b.frames = append(b.frames, branchFrame{label: label, brk: after, cont: head})
	b.cur = body
	b.stmtList(s.Body.List)
	b.frames = b.frames[:len(b.frames)-1]
	b.edge(b.cur, head, nil, false)
	b.cur = after
}

func (b *cfgBuilder) switchStmt(s *ast.SwitchStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.caseBodies(s.Body, label, func(cc *ast.CaseClause) ([]ast.Stmt, bool) {
		return cc.Body, cc.List == nil
	})
}

func (b *cfgBuilder) typeSwitchStmt(s *ast.TypeSwitchStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	// The assign form (v := x.(type)) sits in the head block.
	b.cur.Stmts = append(b.cur.Stmts, s.Assign)
	b.caseBodies(s.Body, label, func(cc *ast.CaseClause) ([]ast.Stmt, bool) {
		return cc.Body, cc.List == nil
	})
}

// caseBodies builds the dispatch structure shared by switch and type
// switch: head fans out to every case body (and to after when there is no
// default); bodies flow to after; fallthrough chains to the next body.
func (b *cfgBuilder) caseBodies(body *ast.BlockStmt, label string, split func(*ast.CaseClause) ([]ast.Stmt, bool)) {
	head := b.cur
	after := b.newBlock()
	var clauses []*ast.CaseClause
	for _, cs := range body.List {
		if cc, ok := cs.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		blocks[i] = b.newBlock()
		b.edge(head, blocks[i], nil, false)
		if _, isDefault := split(cc); isDefault {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.edge(head, after, nil, false)
	}
	b.frames = append(b.frames, branchFrame{label: label, brk: after})
	for i, cc := range clauses {
		stmts, _ := split(cc)
		fall := after
		if i+1 < len(blocks) {
			fall = blocks[i+1]
		}
		b.falls = append(b.falls, fall)
		b.cur = blocks[i]
		b.stmtList(stmts)
		b.edge(b.cur, after, nil, false)
		b.falls = b.falls[:len(b.falls)-1]
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = after
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt, label string) {
	head := b.cur
	after := b.newBlock()
	b.frames = append(b.frames, branchFrame{label: label, brk: after})
	for _, cs := range s.Body.List {
		cc, ok := cs.(*ast.CommClause)
		if !ok {
			continue
		}
		blk := b.newBlock()
		b.edge(head, blk, nil, false)
		b.cur = blk
		if cc.Comm != nil {
			b.stmt(cc.Comm)
		}
		b.stmtList(cc.Body)
		b.edge(b.cur, after, nil, false)
	}
	b.frames = b.frames[:len(b.frames)-1]
	// A select without a default blocks until some case fires, so there is
	// deliberately no head→after edge: every path runs one clause.
	b.cur = after
}

func (b *cfgBuilder) labeledStmt(s *ast.LabeledStmt) {
	lb := b.labelBlock(s.Label.Name)
	b.edge(b.cur, lb, nil, false)
	b.cur = lb
	switch inner := s.Stmt.(type) {
	case *ast.ForStmt:
		b.forStmt(inner, s.Label.Name)
	case *ast.RangeStmt:
		b.rangeStmt(inner, s.Label.Name)
	case *ast.SwitchStmt:
		b.switchStmt(inner, s.Label.Name)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(inner, s.Label.Name)
	case *ast.SelectStmt:
		b.selectStmt(inner, s.Label.Name)
	default:
		b.stmt(s.Stmt)
	}
}

func (b *cfgBuilder) labelBlock(name string) *Block {
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock()
	b.labels[name] = blk
	return blk
}

func (b *cfgBuilder) branchStmt(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	var target *Block
	switch s.Tok {
	case token.BREAK:
		for i := len(b.frames) - 1; i >= 0; i-- {
			f := b.frames[i]
			if f.brk != nil && (label == "" || f.label == label) {
				target = f.brk
				break
			}
		}
	case token.CONTINUE:
		for i := len(b.frames) - 1; i >= 0; i-- {
			f := b.frames[i]
			if f.cont != nil && (label == "" || f.label == label) {
				target = f.cont
				break
			}
		}
	case token.GOTO:
		target = b.labelBlock(label)
	case token.FALLTHROUGH:
		if n := len(b.falls); n > 0 {
			target = b.falls[n-1]
		}
	}
	if target == nil {
		// Malformed (or label outside the body we model): be conservative
		// and treat it as a function exit.
		target = b.cfg.Exit
	}
	b.cur.Stmts = append(b.cur.Stmts, s)
	b.edge(b.cur, target, nil, false)
	b.cur = b.newBlock()
}

// aborts reports whether s unconditionally leaves the function abnormally:
// a panic, runtime.Goexit, os.Exit, or log.Fatal* call. Purely syntactic.
func aborts(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := ast.Unparen(es.X).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := ast.Unparen(fun.X).(*ast.Ident)
		if !ok {
			return false
		}
		switch pkg.Name + "." + fun.Sel.Name {
		case "os.Exit", "runtime.Goexit", "log.Fatal", "log.Fatalf", "log.Fatalln":
			return true
		}
	}
	return false
}

// --- fixpoint solver --------------------------------------------------------

// Flow defines one dataflow problem over a CFG. Facts are analyzer-defined
// values; the solver treats them as immutable — Transfer and TransferCond
// must return fresh facts rather than mutate their inputs.
type Flow struct {
	// Bottom produces the entry fact.
	Bottom func() any
	// Join merges facts meeting at a block boundary.
	Join func(a, b any) any
	// Equal detects convergence.
	Equal func(a, b any) bool
	// Transfer applies one statement to a fact.
	Transfer func(s ast.Stmt, fact any) any
	// TransferCond, when non-nil, refines a fact along a conditional edge:
	// cond held true (neg=false) or false (neg=true) on this path.
	TransferCond func(cond ast.Expr, neg bool, fact any) any
}

// ForwardSolve runs a forward fixpoint over the CFG and returns the fact at
// each block's entry, indexed by Block.Index. Unreachable blocks have a nil
// entry fact.
func (c *CFG) ForwardSolve(fl Flow) []any {
	in := make([]any, len(c.Blocks))
	reached := make([]bool, len(c.Blocks))
	in[c.Entry.Index] = fl.Bottom()
	reached[c.Entry.Index] = true

	work := []*Block{c.Entry}
	queued := make([]bool, len(c.Blocks))
	queued[c.Entry.Index] = true
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		queued[blk.Index] = false

		fact := in[blk.Index]
		for _, s := range blk.Stmts {
			fact = fl.Transfer(s, fact)
		}
		for _, e := range blk.Succs {
			f := fact
			if e.Cond != nil && fl.TransferCond != nil {
				f = fl.TransferCond(e.Cond, e.Neg, f)
			}
			ti := e.To.Index
			if !reached[ti] {
				in[ti] = f
				reached[ti] = true
			} else {
				j := fl.Join(in[ti], f)
				if fl.Equal(in[ti], j) {
					continue
				}
				in[ti] = j
			}
			if !queued[ti] {
				queued[ti] = true
				work = append(work, e.To)
			}
		}
	}
	return in
}
