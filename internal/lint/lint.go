// Package lint is the mpde-vet analyzer suite: eight package-local
// analyzers that turn the repository's runtime-tested invariants into
// compile-time checks. Each analyzer guards a contract that already has a
// runtime counterpart (determinism golden tests, AllocsPerRun gates, the
// context-cancellation tests, the dispatch race tests, the span-drain
// assertions, the goroutine-count checks in the dispatch tests, the
// GOMAXPROCS byte-identity sweeps, and the wire codec round-trip tests);
// the static form catches regressions before a test has to. Stats/metrics
// parity has no analyzer: the server's TestSolverStatsMetricsParity walks
// both Stats structs by reflection against the /metrics series table, so a
// static copy would catch nothing it misses.
//
// The suite has two tiers. The syntactic tier (mpdedeterminism,
// mpdehotpath, mpdectxfirst, mpdelocksafe) pattern-matches single
// constructs. The dataflow tier builds a control-flow graph per
// function body (package repro/internal/lint/analysis) and runs fixpoint
// solvers over it:
//
//	mpdelifecycle  obligations (obs spans, queue leases, HTTP response
//	               bodies, tickers) must be released on every path to return
//	mpdegoroleak   every `go` statement in the serving path needs a
//	               termination witness
//	mpdefloatdet   //mpde:deterministic-parallel worker closures may write
//	               only index-disjoint slice slots
//	mpdewirelock   wire structs must match the committed wire.lock schema
//
// Source opts into the stricter checks with directive comments:
//
//	//mpde:hotpath                on a function: no allocation in the body
//	//mpde:canonical              on a function: its call tree must be deterministic
//	//mpde:deterministic-parallel on a function: results are schedule-independent
//
// and opts individual statements back out, with a reason:
//
//	//mpde:alloc-ok <why>        allocation is intentional here
//	//mpde:coldpath <why>        statement runs off the hot path
//	//mpde:nondet-ok <why>       nondeterminism does not reach the output
//	//mpde:locksafe-ignore <why> blocking under this lock is intended
//	//mpde:lifecycle-ok <why>    the obligation is released elsewhere
//	//mpde:goroleak-ok <why>     the goroutine provably stops anyway
//	//mpde:floatdet-ok <why>     the shared write is deterministic anyway
//
// A suppression directive placed on a statement's own line or the line
// directly above exempts that statement's whole subtree.
package lint

import (
	"go/ast"
	"go/token"
	"strings"

	"repro/internal/lint/analysis"
)

// All returns the full suite in stable order, one fresh slice per call.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		DeterminismAnalyzer,
		HotpathAnalyzer,
		CtxFirstAnalyzer,
		LockSafeAnalyzer,
		LifecycleAnalyzer,
		GoroLeakAnalyzer,
		FloatDetAnalyzer,
		WireLockAnalyzer,
	}
}

// funcDirective reports whether fn's doc comment carries the given
// //mpde:name directive.
func funcDirective(fn *ast.FuncDecl, name string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if directiveName(c.Text) == name {
			return true
		}
	}
	return false
}

// directiveName extracts "hotpath" from "//mpde:hotpath reason...", or ""
// if the comment is not an mpde directive.
func directiveName(comment string) string {
	rest, ok := strings.CutPrefix(comment, "//mpde:")
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// lineKey identifies one source line across the files of a pass.
type lineKey struct {
	file string
	line int
}

// suppressions indexes every mpde suppression directive in the pass by the
// line it occupies, so analyzers can exempt statements cheaply.
type suppressions struct {
	fset   *token.FileSet
	byLine map[lineKey]map[string]bool
}

func collectSuppressions(fset *token.FileSet, files []*ast.File) *suppressions {
	s := &suppressions{fset: fset, byLine: make(map[lineKey]map[string]bool)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name := directiveName(c.Text)
				if name == "" {
					continue
				}
				posn := fset.Position(c.Pos())
				key := lineKey{posn.Filename, posn.Line}
				if s.byLine[key] == nil {
					s.byLine[key] = make(map[string]bool)
				}
				s.byLine[key][name] = true
			}
		}
	}
	return s
}

// at reports whether any of the named directives sits on pos's line or the
// line directly above it (the two places a statement suppression may live).
func (s *suppressions) at(pos token.Pos, names ...string) bool {
	posn := s.fset.Position(pos)
	for _, line := range []int{posn.Line, posn.Line - 1} {
		set := s.byLine[lineKey{posn.Filename, line}]
		for _, name := range names {
			if set[name] {
				return true
			}
		}
	}
	return false
}

// walkSkipping visits root like ast.Inspect but prunes any statement whose
// line (or the line above) carries one of the suppression directives, and
// never descends into function literals when descendFuncLit is false.
func walkSkipping(root ast.Node, sup *suppressions, directives []string, descendFuncLit bool, visit func(ast.Node) bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if _, ok := n.(ast.Stmt); ok && sup.at(n.Pos(), directives...) {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok && !descendFuncLit && n != root {
			return false
		}
		return visit(n)
	})
}
