package analysis

import (
	"go/ast"
	"go/types"
)

// write-in-readonly: no write may be reachable from a function passed
// to Thread.AtomicRead. A read-only transaction rides the MVCC-lite
// snapshot path (DESIGN §4.4) — one clock sample, no lockword CAS, no
// guard acquisition, wait-free under writers. The first Var.Set (or
// anything else that needs commit machinery: Tx.Open, handler
// registration, AddTopGuard) silently demotes the whole transaction to
// the locking retry path, so the declared read-only intent and the
// perf it was chosen for are both lost at runtime with no signal
// beyond a fallback counter. This rule makes the demotion a build-time
// finding instead.
//
// Effects, per scan:
//
//   - Var.Set anywhere on the body's same-transaction synchronous
//     path, lexically or through the module call graph.
//   - Lexically in the AtomicRead body itself, the fallback-forcing
//     registrations too: Tx.Open, the four handler registrations
//     (walk.go's handlerRegistrations), Tx.AddTopGuard. These are only
//     flagged at the root. internal/core's TransactionalMap.Get branches
//     on Tx.IsSnapshot: its snapshot branch answers from committed state
//     and registers nothing, its retry branch registers. A reachability
//     search cannot tell the two branches apart, so a reachable
//     registration is not evidence of a fallback the way a reachable
//     Var.Set is of a write.
//
// Function literals that begin a *different* transaction (bodies of
// Atomic/AtomicRead/Open/Nested) are not traversed: their writes
// belong to that transaction, and starting one from a read-only body
// is its own finding (the Open/registration call site is flagged here;
// a nested Thread.Atomic is nested-atomic's). Var.SetCommitted inside
// a transaction is naked-var-access's finding and is not re-reported
// under this ID.
var ruleWriteInReadonly = &Rule{
	ID:  "write-in-readonly",
	Doc: "Var.Set (or Tx.Open/handler registration) reachable from a Thread.AtomicRead body (silently demotes the snapshot read to the retry path)",
	Run: runWriteInReadonly,
}

func runWriteInReadonly(p *Pass) {
	if p.isSTMPackage() {
		return
	}
	g := p.Graph
	searcher := g.newSearcher(func(n *callNode) []effect {
		return writeEffectsIn(g, n.pkg.Info, n.decl.Body, false)
	}, writeTrusted)

	info := p.Pkg.Info
	seen := make(map[string]bool)
	check := func(stmts []ast.Stmt) {
		p.reportLexical(stmts, func(root ast.Node) []effect {
			return writeEffectsIn(g, info, root, true)
		}, seen, func(desc string) string {
			return desc + " inside a read-only AtomicRead body; the transaction silently falls back to the locking retry path — drop the write or use Thread.Atomic"
		})
		p.reportReach(stmts, searcher, seen, func(head, chain string) string {
			return "call to " + head + " inside a read-only AtomicRead body reaches a write (" + chain + "); the transaction silently falls back to the locking retry path"
		})
	}
	p.forEachFile(func(f *ast.File) {
		p.forEachReadOnlyBody(f, check)
	})
}

// forEachReadOnlyBody visits the statements of every read-only
// transaction root in f: function literals passed to Thread.AtomicRead
// here, and named functions the module passes to AtomicRead anywhere
// that are declared here.
func (p *Pass) forEachReadOnlyBody(f *ast.File, visit func(stmts []ast.Stmt)) {
	g := p.Graph
	ast.Inspect(f, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && g.litKinds[lit] == bodyReadOnlyTx {
			visit(lit.Body.List)
		}
		return true
	})
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		if fn := declFunc(p.Pkg.Info, fd); fn != nil && g.readonlyBodyFuncs[fn] {
			visit(fd.Body.List)
		}
	}
}

// writeTrusted prunes the reachability search at the STM package
// itself: the implementation is exempt from client-discipline rules,
// and nothing a client reaches inside it is a client write.
func writeTrusted(fn *types.Func) bool {
	pkg := fn.Pkg()
	return pkg != nil && isSTMPath(pkg.Path())
}

// writeEffectsIn collects the write-path operations on root's
// same-transaction synchronous path, in source order. atRoot widens
// the vocabulary from Var.Set to the fallback-forcing registrations
// (see the rule comment for why those are root-only). Goroutine
// bodies, handler bodies and transaction-body literals are pruned —
// each is a different execution context with its own rules.
func writeEffectsIn(g *CallGraph, info *types.Info, root ast.Node, atRoot bool) []effect {
	var effs []effect
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.FuncLit:
			if g.litKinds[n] != bodyPlain {
				return false
			}
		case *ast.CallExpr:
			if e, ok := writeCall(info, n, atRoot); ok {
				effs = append(effs, e)
			}
		}
		return true
	})
	return effs
}

// writeCall classifies a call expression as a write-path operation.
func writeCall(info *types.Info, call *ast.CallExpr, atRoot bool) (effect, bool) {
	if isSTMMethod(info, call, "Var", "Set") {
		return effect{call.Pos(), "Var.Set write"}, true
	}
	if !atRoot {
		return effect{}, false
	}
	if isSTMMethod(info, call, "Tx", "Open") {
		return effect{call.Pos(), "open-nested Tx.Open"}, true
	}
	// Registrations force a snapshot transaction back onto the retry
	// path the moment they are called.
	if isHandlerRegistration(info, call) || isSTMMethod(info, call, "Tx", "AddTopGuard") {
		return effect{call.Pos(), "Tx." + calleeFunc(info, call).Name() + " registration"}, true
	}
	return effect{}, false
}
