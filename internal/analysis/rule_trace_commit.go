package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// trace-in-commit: observability work inside a commit-guard hold
// window. The STM promises that tracing is pay-as-you-go: event structs
// are built and Tracer.Trace is invoked only outside commit guards
// (stm.Guard), because a sink is arbitrary user code and event assembly
// allocates — either one inside a guard window would serialize every
// commit sharing that guard behind it. Conflict attribution inside the
// window is limited to plain field stores (stm's noteConflict and
// lockContended); emission happens after the guards are released. This
// rule makes that boundary machine-checked over the whole module: no
// statement of a guard-hold window or handler body — nor anything
// reachable from one through the call graph, across packages — may
// call into the obs package or construct an obs value. Lexical
// violations are reported at the offending expression; reachable ones
// at the in-window call site, with the call chain in the message, so
// any suppression stays next to the window that owns the problem.
var ruleTraceInCommit = &Rule{
	ID:  "trace-in-commit",
	Doc: "observability emission (obs call or obs value construction) inside a commit-guard hold window",
	Run: runTraceInCommit,
}

// isObsPath reports whether an import path names the observability
// package, by suffix for the same reason isSTMPath matches by suffix.
func isObsPath(path string) bool {
	return path == "obs" || strings.HasSuffix(path, "/obs")
}

func runTraceInCommit(p *Pass) {
	g := p.Graph
	// The search stops at obs package boundaries: the forbidden thing
	// is entering obs (or building its values) with a guard held, which
	// the *edge* into obs already is — descending inside would only
	// produce longer chains for the same finding.
	searcher := g.newSearcher(func(n *callNode) []effect {
		return obsEffectsIn(g, n.pkg.Info, n.decl.Body)
	}, func(fn *types.Func) bool {
		return fn.Pkg() != nil && isObsPath(fn.Pkg().Path())
	})

	info := p.Pkg.Info
	seen := make(map[string]bool)
	check := func(stmts []ast.Stmt, where string) {
		p.reportLexical(stmts, func(root ast.Node) []effect {
			return obsEffectsIn(g, info, root)
		}, seen, func(desc string) string {
			return desc + " inside a " + where + "; emit after the guard is released — a tracer sink is user code and event assembly allocates, and neither may run under a commit guard"
		})
		p.reportReach(stmts, searcher, seen, func(head, chain string) string {
			return "call to " + head + " inside a " + where + " reaches observability emission (" + chain + "); emit after the guard is released"
		})
	}
	p.forEachFile(func(f *ast.File) {
		p.forEachGuardWindow(f, func(w guardWindow) {
			check(w.body, "commit-guard hold window")
		})
		p.forEachHandlerBody(f, func(body *ast.BlockStmt) {
			check(body.List, "commit/abort handler (which runs with its guard held)")
		})
	})
}

// obsEffectsIn collects references to the obs package lexically on the
// synchronous path under root: calls whose callee is declared in obs
// (including interface methods like Tracer.Trace) and composite
// literals of obs types.
func obsEffectsIn(g *CallGraph, info *types.Info, root ast.Node) []effect {
	var effs []effect
	g.inspectSyncPath(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := calleeFunc(info, n)
			if fn != nil && fn.Pkg() != nil && isObsPath(fn.Pkg().Path()) {
				effs = append(effs, effect{n.Pos(), "call to obs." + fn.Name()})
			}
		case *ast.CompositeLit:
			if tv, ok := info.Types[n]; ok {
				if named, ok := tv.Type.(*types.Named); ok {
					obj := named.Origin().Obj()
					if obj.Pkg() != nil && isObsPath(obj.Pkg().Path()) {
						effs = append(effs, effect{n.Pos(), "constructing obs." + obj.Name()})
					}
				}
			}
		}
		return true
	})
	return effs
}
