package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// guard-order: multi-guard acquisition must go through the footprint
// machinery or be provably ordered. The commit protocol is deadlock-
// free because every path that holds more than one stm.Guard acquires
// them in ascending ID order — the commit protocol's footprint
// acquisition over a sorted set, or a striped collection's span sweep,
// each of which says so with a //stmlint:window directive. A second
// guard taken while one is held (directly in the window, or anywhere a
// call from the window reaches — the machinery itself included: it
// orders its own set, not what the caller already holds) reintroduces
// exactly the lock-order inversion the protocol exists to rule out.
// Three shapes are flagged:
//
//   - a loop that acquires guards without releasing inside the body
//     (a footprint sweep), unless the enclosing function is itself the
//     sanctioned machinery (it carries a //stmlint:window directive);
//   - a direct acquisition (guardTake) inside a window or handler body;
//   - an acquisition reachable through calls from a window or handler.
//
// The escape hatch for genuinely ordered manual code: nest the
// acquisitions under an if whose condition compares the two guards'
// ID()s — the canonical ascending-order proof — and the block is
// exempt.
var ruleGuardOrder = &Rule{
	ID:  "guard-order",
	Doc: "manual multi-guard acquisition outside the footprint machinery or a proven ascending ID order",
	Run: runGuardOrder,
}

func runGuardOrder(p *Pass) {
	g := p.Graph
	searcher := g.newSearcher(func(n *callNode) []effect {
		return guardAcquireEffectsIn(g, n.pkg.Info, n.decl.Body)
	}, func(fn *types.Func) bool { return false })

	info := p.Pkg.Info
	seen := make(map[string]bool)
	p.forEachFile(func(f *ast.File) {
		exempt := orderProvenBlocks(info, f)
		p.checkAcquisitionLoops(f, seen)

		check := func(block *ast.BlockStmt, stmts []ast.Stmt, where string) {
			if block != nil && exempt[block] {
				return
			}
			p.reportLexical(stmts, func(root ast.Node) []effect {
				return guardAcquireEffectsIn(g, info, root)
			}, seen, func(desc string) string {
				return desc + " while a guard is already held " + where + "; acquire multi-guard footprints in one call of a //stmlint:window helper that sweeps in ascending ID order, or guard the nesting with an explicit ID() comparison"
			})
			p.reportReach(stmts, searcher, seen, func(head, chain string) string {
				return "call to " + head + " " + where + " acquires another guard (" + chain + "); acquire multi-guard footprints in one call of a //stmlint:window helper that sweeps in ascending ID order"
			})
		}
		p.forEachGuardWindow(f, func(w guardWindow) {
			check(w.block, w.body, "inside a commit-guard hold window")
		})
		p.forEachHandlerBody(f, func(body *ast.BlockStmt) {
			check(body, body.List, "inside a commit/abort handler (which runs with its guard held)")
		})
	})
}

// checkAcquisitionLoops flags loops that lock a guard per iteration
// without a matching in-iteration unlock — a manual footprint sweep —
// unless the enclosing declaration is the sanctioned machinery itself.
func (p *Pass) checkAcquisitionLoops(f *ast.File, seen map[string]bool) {
	info := p.Pkg.Info
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil || p.Graph.windowOps[declFunc(info, fd)] != 0 {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.ForStmt:
				body = n.Body
			case *ast.RangeStmt:
				body = n.Body
			default:
				return true
			}
			lock, unlock := loopGuardOps(info, body)
			if lock != token.NoPos || unlock {
				// Either way, don't descend: a nested loop's ops were
				// already counted against this one.
				if lock != token.NoPos && !unlock {
					msg := "loop acquires a guard every iteration without releasing it; a manual footprint sweep deadlocks against the commit protocol unless it is the machinery itself (a //stmlint:window helper sweeping in ascending ID order)"
					key := dedupKey(lock, msg)
					if !seen[key] {
						seen[key] = true
						p.Reportf(lock, "%s", msg)
					}
				}
				return false
			}
			return true
		})
	}
}

// loopGuardOps scans a loop body (synchronous path, deferred unlocks
// excluded — a deferred release happens at function return, after every
// iteration has already locked) for Guard.Lock and Guard.Unlock calls.
func loopGuardOps(info *types.Info, body *ast.BlockStmt) (lock token.Pos, unlock bool) {
	lock = token.NoPos
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt, *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if isSTMMethod(info, n, "Guard", "Lock") && lock == token.NoPos {
				lock = n.Pos()
			}
			if isSTMMethod(info, n, "Guard", "Unlock") {
				unlock = true
			}
		}
		return true
	})
	return lock, unlock
}

// guardAcquireEffectsIn collects guard acquisitions lexically on the
// synchronous path under root. A call to a multi-guard opener is not one
// in its own right — the directive it carries is shared with the openers
// of lockword and sequence-lock windows, which take no guard — but the
// reachability search finds the acquisition inside it like any other.
func guardAcquireEffectsIn(g *CallGraph, info *types.Info, root ast.Node) []effect {
	var effs []effect
	g.inspectSyncPath(root, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if desc, ok := guardTake(info, call); ok {
				effs = append(effs, effect{call.Pos(), desc})
			}
		}
		return true
	})
	return effs
}

// guardTake recognizes, by type, a call that takes a commit guard:
// Guard.Lock, or — how the stm package takes one itself — Lock or TryLock
// on a field of a Guard.
func guardTake(info *types.Info, call *ast.CallExpr) (string, bool) {
	if isSTMMethod(info, call, "Guard", "Lock") {
		return "Guard.Lock", true
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && (sel.Sel.Name == "Lock" || sel.Sel.Name == "TryLock") {
		if field, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok && stmNamedPtr(info.TypeOf(field.X), "Guard") {
			return "Guard." + field.Sel.Name + "." + sel.Sel.Name, true
		}
	}
	return "", false
}

// orderProvenBlocks collects the blocks exempted by the ascending-ID
// idiom: the then/else blocks of any if whose condition mentions two or
// more Guard.ID() calls — the programmer is explicitly ordering the
// acquisitions by ID, which is the protocol's own order.
func orderProvenBlocks(info *types.Info, f *ast.File) map[*ast.BlockStmt]bool {
	exempt := make(map[*ast.BlockStmt]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		ids := 0
		ast.Inspect(ifs.Cond, func(c ast.Node) bool {
			if call, ok := c.(*ast.CallExpr); ok && isSTMMethod(info, call, "Guard", "ID") {
				ids++
			}
			return true
		})
		if ids >= 2 {
			exempt[ifs.Body] = true
			if els, ok := ifs.Else.(*ast.BlockStmt); ok {
				exempt[els] = true
			}
		}
		return true
	})
	return exempt
}
