package analysis

import (
	"go/ast"
	"go/types"
)

// handler-txn: transactional work inside a commit/abort handler. The
// paper's handler rules (§4, §5) are strict: handlers run after the
// transaction's fate is decided — commit handlers after the memory
// commit, abort handlers during rollback, both under the guards their
// registrations name — so they must operate on non-transactional state
// (the underlying collection, guarded by its own mutex) and must not
// start transactions, touch stm.Vars, or use the dead *stm.Tx they may
// have captured. A handler that did any of those could deadlock on the
// commit guard, observe a half-committed snapshot, or resurrect a
// transaction whose read/write sets are already discarded.
var ruleHandlerTxn = &Rule{
	ID:  "handler-txn",
	Doc: "commit/abort handler starts a transaction (Atomic, AtomicRead, Open, Nested), touches a Var, or uses a captured *stm.Tx",
	Run: runHandlerTxn,
}

func runHandlerTxn(p *Pass) {
	if p.isSTMPackage() {
		return
	}
	info := p.Pkg.Info
	p.forEachFile(func(f *ast.File) {
		// Receivers of calls this rule already reported, so the ident
		// check below doesn't double-report `tx` in `tx.Nested(...)`.
		reported := make(map[*ast.Ident]bool)
		p.walkCtx(f, func(n ast.Node, ctx funcCtx) {
			if !ctx.inHandler {
				return
			}
			switch n := n.(type) {
			case *ast.CallExpr:
				switch {
				case isTopLevelEntry(info, n),
					isSTMMethod(info, n, "Tx", "Open"),
					isSTMMethod(info, n, "Tx", "Nested"):
					p.Reportf(n.Pos(), "handler starts a transaction; handlers run after the transaction's fate is decided and must only touch non-transactional state")
					markReceiver(n, reported)
				case isSTMMethod(info, n, "Var", "Get"),
					isSTMMethod(info, n, "Var", "Set"),
					isSTMMethod(info, n, "Var", "GetCommitted"),
					isSTMMethod(info, n, "Var", "SetCommitted"):
					p.Reportf(n.Pos(), "handler touches transactional state (stm.Var); apply buffered updates to the underlying structure instead")
					markReceiver(n, reported)
				case isHandlerRegistration(info, n):
					p.Reportf(n.Pos(), "handler registers another handler on a finished transaction")
					markReceiver(n, reported)
				}
			case *ast.Ident:
				if reported[n] {
					return
				}
				obj, isVar := info.Uses[n].(*types.Var)
				if isVar && !obj.IsField() && stmNamedPtr(obj.Type(), "Tx") {
					p.Reportf(n.Pos(), "handler closure captures *stm.Tx %q; the transaction is finished when the handler runs — capture tx.Handle() or tx.Thread() before registering instead", n.Name)
				}
			}
		})
	})
}

// markReceiver records the receiver identifier of a method call so the
// ident pass skips it.
func markReceiver(call *ast.CallExpr, reported map[*ast.Ident]bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		reported[id] = true
	}
}
