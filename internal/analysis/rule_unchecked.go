package analysis

import "go/ast"

// unchecked-atomic: the error result of Thread.Atomic or
// Thread.AtomicRead discarded. Neither retries forever: if the body
// returns an error or calls tx.Abort the transaction rolls back and the
// error comes out of the call — that is the paper's program-directed
// self-abort channel (§4), the only way a transaction reports "I saw an
// inconsistency and undid myself". Dropping the result (a bare call
// statement, `_ =`, or go/defer-ing the call) silently swallows those
// aborts: the caller proceeds as if the transaction committed when none
// of its effects exist.
var ruleUncheckedAtomic = &Rule{
	ID:  "unchecked-atomic",
	Doc: "Thread.Atomic/AtomicRead's error result discarded (user aborts are silently lost)",
	Run: runUncheckedAtomic,
}

func runUncheckedAtomic(p *Pass) {
	info := p.Pkg.Info
	// entry returns e's top-level-transaction call and method name, or nil.
	entry := func(e ast.Expr) (*ast.CallExpr, string) {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok || !isTopLevelEntry(info, call) {
			return nil, ""
		}
		return call, calleeFunc(info, call).Name()
	}
	p.forEachFile(func(f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, name := entry(n.X); call != nil {
					p.Reportf(call.Pos(), "%s's error result discarded; it carries user aborts (tx.Abort / body errors) whose effects were rolled back", name)
				}
			case *ast.GoStmt:
				if call, name := entry(n.Call); call != nil {
					p.Reportf(call.Pos(), "%s launched with go discards its error result; run it inside the goroutine and handle the error", name)
				}
			case *ast.DeferStmt:
				if call, name := entry(n.Call); call != nil {
					p.Reportf(call.Pos(), "deferred %s discards its error result; wrap it in a closure and handle the error", name)
				}
			case *ast.AssignStmt:
				if len(n.Rhs) != 1 {
					return true
				}
				call, name := entry(n.Rhs[0])
				if call == nil {
					return true
				}
				allBlank := true
				for _, lhs := range n.Lhs {
					if id, isID := ast.Unparen(lhs).(*ast.Ident); !isID || id.Name != "_" {
						allBlank = false
					}
				}
				if allBlank {
					p.Reportf(call.Pos(), "%s's error result assigned to _; it carries user aborts whose effects were rolled back", name)
				}
			}
			return true
		})
	})
}
