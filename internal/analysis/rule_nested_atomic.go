package analysis

import "go/ast"

// nested-atomic: Thread.Atomic or Thread.AtomicRead started while a
// transaction is already running on the thread. The STM panics on this
// at runtime ("stm: nested Atomic on one Thread"); the paper's
// composition story (§2.3, §4) requires closed nesting (tx.Nested) for
// partial rollback or open nesting (tx.Open) for early release — never a
// second top-level transaction. The rule is lexical: any such call
// reachable inside a transaction body closure (including through plain
// nested closures, which may be invoked inline) is flagged. Goroutine
// bodies are excluded — a spawned goroutine is a different worker, and
// leaking the transaction into it is tx-escape's domain.
var ruleNestedAtomic = &Rule{
	ID:  "nested-atomic",
	Doc: "Thread.Atomic/AtomicRead called inside a transactional body; use tx.Nested or tx.Open",
	Run: runNestedAtomic,
}

func runNestedAtomic(p *Pass) {
	info := p.Pkg.Info
	p.forEachFile(func(f *ast.File) {
		p.walkCtx(f, func(n ast.Node, ctx funcCtx) {
			call, ok := n.(*ast.CallExpr)
			if !ok || !ctx.inTx || ctx.inHandler {
				return
			}
			if isTopLevelEntry(info, call) {
				p.Reportf(call.Pos(), "top-level transaction started inside a transactional body (panics at runtime); use tx.Nested for partial rollback or tx.Open for open nesting")
			}
		})
	})
}
