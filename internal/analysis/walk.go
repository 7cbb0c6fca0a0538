package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// isSTMPath reports whether an import path names the STM package that
// defines Thread/Tx/Var/Handle. Matching by path suffix keeps the rules
// independent of the module name (fixtures, forks, renames).
func isSTMPath(path string) bool {
	return path == "stm" || strings.HasSuffix(path, "/stm")
}

// isSTMPackage reports whether the package under analysis is the STM
// implementation itself. The implementation is exempt from the rules
// that govern *clients* of the API (it constructs Tx values, touches
// varCore directly, and so on).
func (p *Pass) isSTMPackage() bool { return isSTMPath(p.Pkg.Path) }

// calleeFunc resolves the function or method called by call, or nil if
// the callee is not a declared function (e.g. a function-typed
// variable, a conversion, or a builtin).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	case *ast.IndexExpr: // explicit generic instantiation f[T](...)
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			fn, _ := info.Uses[id].(*types.Func)
			return fn
		}
	}
	return nil
}

// recvNamed returns the named type of fn's receiver (pointers
// dereferenced, generic instances reduced to their origin), or nil for
// package-level functions.
func recvNamed(fn *types.Func) *types.Named {
	if fn == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	return named.Origin()
}

// isSTMMethod reports whether call invokes the method recv.name of the
// STM package (e.g. isSTMMethod(call, "Thread", "Atomic")).
func isSTMMethod(info *types.Info, call *ast.CallExpr, recv, name string) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Name() != name {
		return false
	}
	named := recvNamed(fn)
	if named == nil || named.Obj().Name() != recv {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && isSTMPath(pkg.Path())
}

// isTopLevelEntry reports whether call starts a top-level transaction:
// Thread.Atomic or Thread.AtomicRead, which differ only in the mode of
// the first attempt — both return the body's error, and both panic when
// a transaction is already running on the thread.
func isTopLevelEntry(info *types.Info, call *ast.CallExpr) bool {
	return isSTMMethod(info, call, "Thread", "Atomic") || isSTMMethod(info, call, "Thread", "AtomicRead")
}

// handlerRegistrations are the Tx methods that register a commit or
// abort handler. Each takes (guard, fn): the handler is argument 1.
var handlerRegistrations = [...]string{
	"OnCommitGuarded", "OnAbortGuarded", "OnTopCommitGuarded", "OnTopAbortGuarded",
}

// isHandlerRegistration reports whether call registers a handler.
func isHandlerRegistration(info *types.Info, call *ast.CallExpr) bool {
	for _, name := range handlerRegistrations {
		if isSTMMethod(info, call, "Tx", name) {
			return true
		}
	}
	return false
}

// stmNamedPtr reports whether t is a pointer to the STM package's named
// type with the given name (*stm.Tx, *stm.Thread, ...).
func stmNamedPtr(t types.Type, name string) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Origin().Obj()
	return obj.Name() == name && obj.Pkg() != nil && isSTMPath(obj.Pkg().Path())
}

// bodyKind classifies a function literal by how the STM will run it.
type bodyKind int

const (
	bodyPlain      bodyKind = iota
	bodyTx                  // argument to Thread.Atomic, Tx.Open, Tx.Nested or a //stmlint:txbody helper
	bodyReadOnlyTx          // argument to Thread.AtomicRead (a transaction body that must not write)
	bodyHandler             // handler argument of a handlerRegistrations method
	bodyGo                  // launched by a go statement
)

// funcCtx is the transactional context in effect at a node.
type funcCtx struct {
	// inTx: lexically inside the body closure of Atomic/Open/Nested
	// (including plain nested closures, which may be invoked inline).
	inTx bool
	// inHandler: lexically inside a commit/abort handler closure.
	inHandler bool
	// txInScope: a *stm.Tx is reachable here — either because we are
	// inside a transactional body or because an enclosing function (up
	// to the nearest goroutine boundary) declares a *stm.Tx parameter.
	txInScope bool
}

// classifyArgs records how the STM will run each function f hands it: a
// literal's bodyKind in litKinds, a named function in the map of its kind
// — the interprocedural generalization, so that a function declared in
// package A and registered in package B is classified when either is
// analyzed. A helper that runs the function it is handed as a
// transaction body — core's open, the one tx.Open of every collection —
// says so with //stmlint:txbody in its doc comment (txBodyHelpers).
func (g *CallGraph) classifyArgs(info *types.Info, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				g.litKinds[lit] = bodyGo
			}
		case *ast.CallExpr:
			mark := func(i int, kind bodyKind) {
				if i >= len(n.Args) {
					return
				}
				if lit, ok := ast.Unparen(n.Args[i]).(*ast.FuncLit); ok {
					g.litKinds[lit] = kind
				} else if fn := exprFunc(info, n.Args[i]); fn != nil {
					// A read-only body is still a transaction body (it runs
					// with a live *stm.Tx, so the tx-context rules apply) and
					// is additionally rooted by the write-in-readonly rule.
					switch kind {
					case bodyHandler:
						g.handlerFuncs[fn] = true
					case bodyReadOnlyTx:
						g.readonlyBodyFuncs[fn] = true
						fallthrough
					case bodyTx:
						g.txBodyFuncs[fn] = true
					}
				}
			}
			switch {
			case isSTMMethod(info, n, "Thread", "Atomic"),
				isSTMMethod(info, n, "Tx", "Open"),
				isSTMMethod(info, n, "Tx", "Nested"):
				mark(0, bodyTx)
			case isSTMMethod(info, n, "Thread", "AtomicRead"):
				mark(0, bodyReadOnlyTx)
			case isHandlerRegistration(info, n):
				mark(1, bodyHandler)
			case g.txBodyHelpers[originFunc(calleeFunc(info, n))]:
				for i := range n.Args {
					mark(i, bodyTx)
				}
			}
		}
		return true
	})
}

// hasTxParam reports whether the function type declares a *stm.Tx
// parameter or receiver.
func hasTxParam(info *types.Info, ft *ast.FuncType, recv *ast.FieldList) bool {
	check := func(fl *ast.FieldList) bool {
		if fl == nil {
			return false
		}
		for _, field := range fl.List {
			if tv, ok := info.Types[field.Type]; ok && stmNamedPtr(tv.Type, "Tx") {
				return true
			}
		}
		return false
	}
	return check(ft.Params) || check(recv)
}

// walkCtx traverses f, invoking visit for every node with the
// transactional context in effect at that node. Goroutine bodies reset
// the context (they run concurrently with, not inside, the
// transaction); handler bodies run after the transaction's fate is
// decided and so clear inTx. Classification comes from the call graph,
// which spans the whole module: a named function registered as a
// handler or passed as a transaction body in *any* package carries
// that context into its declaration here.
func (p *Pass) walkCtx(f *ast.File, visit func(n ast.Node, ctx funcCtx)) {
	info := p.Pkg.Info
	g := p.Graph

	var walk func(n ast.Node, ctx funcCtx)
	walk = func(n ast.Node, ctx funcCtx) {
		switch n := n.(type) {
		case *ast.FuncDecl:
			ctx = funcCtx{txInScope: hasTxParam(info, n.Type, n.Recv)}
			if fn := declFunc(info, n); fn != nil {
				switch {
				case g.handlerFuncs[fn]:
					ctx.inHandler = true
				case g.txBodyFuncs[fn]:
					ctx.inTx = true
					ctx.txInScope = true
				}
			}
		case *ast.FuncLit:
			switch g.litKinds[n] {
			case bodyTx, bodyReadOnlyTx:
				ctx = funcCtx{inTx: true, txInScope: true}
			case bodyHandler:
				ctx = funcCtx{inHandler: true}
			case bodyGo:
				ctx = funcCtx{}
			default:
				// Plain closure: inherits its lexical context.
			}
			if hasTxParam(info, n.Type, nil) {
				ctx.txInScope = true
			}
		}
		visit2 := func(child ast.Node) bool {
			if child == nil || child == n {
				return child == n
			}
			walk(child, ctx)
			return false
		}
		visit(n, ctx)
		ast.Inspect(n, visit2)
	}
	walk(f, funcCtx{})
}
