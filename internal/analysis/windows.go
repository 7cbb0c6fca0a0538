package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// This file locates the code regions that execute with a commit guard
// held — the roots the interprocedural rules (trace-in-commit,
// commit-window-blocking, guard-order) analyze from. Two kinds exist:
//
//   - Guard-hold windows: within one block, the statements between a
//     window-opening statement (Guard.Lock, or a helper annotated
//     //stmlint:window open) and the closing one (Guard.Unlock, or a
//     helper annotated //stmlint:window close).
//     The opener itself is excluded — acquisition is not yet "inside" —
//     and the closer is included (it still runs with the guard held).
//     A window never closed in its block extends to the block's end,
//     which is also how a deferred Unlock behaves: the guard is held
//     until the function returns. The body of a function literal passed
//     to a helper annotated //stmlint:window around is a window too, all
//     of it: the helper opens, runs the literal and closes.
//
//   - Handler bodies: function literals registered as commit/abort
//     handlers, and named functions the module registers anywhere (per
//     the call graph). The STM runs them with their guard held, so they
//     are windows whose opener lives in the commit protocol.
type guardWindow struct {
	// block is the enclosing block, for context-sensitive exemptions
	// (guard-order's ascending-ID idiom).
	block *ast.BlockStmt
	// body is the statements that run with the guard held, closer
	// included.
	body []ast.Stmt
}

// forEachGuardWindow scans every block in f for guard-hold windows.
// Windows in nested blocks are reported for their own block; a window
// spanning an if/for statement contains that whole statement in its
// body, so effects inside nested blocks of a wider window are still
// attributed to it.
func (p *Pass) forEachGuardWindow(f *ast.File, visit func(w guardWindow)) {
	info := p.Pkg.Info
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && p.Graph.windowOps[originFunc(calleeFunc(info, call))] == windowAround {
			for _, arg := range call.Args {
				if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					visit(guardWindow{block: lit.Body, body: lit.Body.List})
				}
			}
		}
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		open := -1
		for i, stmt := range block.List {
			if open < 0 {
				if p.Graph.stmtGuardOp(info, stmt, "Lock", windowOpen) {
					open = i
				}
				continue
			}
			if p.Graph.stmtGuardOp(info, stmt, "Unlock", windowClose) {
				visit(guardWindow{block: block, body: block.List[open+1 : i+1]})
				open = -1
			}
		}
		if open >= 0 {
			visit(guardWindow{block: block, body: block.List[open+1:]})
		}
		return true
	})
}

// forEachHandlerBody visits the body of every handler in f: literals
// classified bodyHandler, and declared functions some package of the
// module registers as handlers.
func (p *Pass) forEachHandlerBody(f *ast.File, visit func(body *ast.BlockStmt)) {
	info := p.Pkg.Info
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if p.Graph.litKinds[n] == bodyHandler {
				visit(n.Body)
			}
		case *ast.FuncDecl:
			if n.Body != nil && p.Graph.handlerFuncs[declFunc(info, n)] {
				visit(n.Body)
			}
		}
		return true
	})
}

// Window vocabulary. Openers are calls that leave the caller holding
// an exclusive resource every other committer can queue on; closers
// release it. Guard.Lock/Unlock (the collections' fused critical
// sections) are recognized by type; every other opener and closer is a
// helper that says so itself, with a directive in its doc comment:
//
//	//stmlint:window open
//	//stmlint:window close
//	//stmlint:window around
//
// An around helper opens a window, runs the function it is handed and
// closes it: the window is the body of the literal at the call site, and
// what runs before or after the call (a defer registered ahead of it
// included) is outside. Only a literal is followed — like every function
// value, a variable or a method value has no edge in the call graph.
//
// The module annotates three layers this way:
//
//   - Commit guards: acquireGuards/releaseGuards (the commit
//     protocol's footprint acquisition) and core's lockSpan/unlockSpan,
//     the one multi-guard sweep every striped collection shares (a
//     contiguous span of stripes or lanes, all of them included), which
//     core reaches only through its around helpers, held and section.
//   - Write-set lockwords: lockWriteSet acquires every written var's
//     lockword in id order; unlockWriteSet (failed commit) and
//     installWriteSet (successful publish) release them. Between the
//     two, every reader of those vars spins — the protocol seam's
//     per-protocol commit methods (protocol_*.go) all hold this span.
//   - The NOrec sequence lock: norecSeqAcquire leaves norecSeq odd,
//     which stalls every NOrec reader and writer system-wide until
//     norecSeqRelease stores it even again — the widest window of the
//     three, so keeping it tight matters most.
//
// A directive also makes its function guard machinery: the blocking
// rule trusts it (acquiring the footprint, the write-set lockwords or
// the sequence lock is the one sanctioned blocking operation — ordered
// or bounded, and it IS the window), guard-order lets it sweep, and
// window scanning treats calls to it as the window boundary rather
// than as content. CallGraph.windowOps holds what the directives said.
type windowOp int

const (
	windowOpen windowOp = iota + 1
	windowClose
	windowAround
)

// windowDirective reads a //stmlint:window directive out of a
// declaration's doc comment (0 when there is none).
func windowDirective(doc *ast.CommentGroup) windowOp {
	switch {
	case hasDirective(doc, "//stmlint:window open"):
		return windowOpen
	case hasDirective(doc, "//stmlint:window close"):
		return windowClose
	case hasDirective(doc, "//stmlint:window around"):
		return windowAround
	}
	return 0
}

// hasDirective reports whether a declaration's doc comment carries the
// directive line.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc != nil {
		for _, c := range doc.List {
			if strings.TrimSpace(c.Text) == directive {
				return true
			}
		}
	}
	return false
}

// stmtGuardOp reports whether stmt directly opens (or closes) a hold
// window: the stm.Guard method itself, type-checked against the stm
// package, or a call to a function annotated with op. Deferred calls
// and function literals do not count: a defer runs at function return,
// and a closure body runs whenever it is invoked — neither changes
// whether the resource is held at the statements that follow.
func (g *CallGraph) stmtGuardOp(info *types.Info, stmt ast.Stmt, method string, op windowOp) bool {
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt, *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if isSTMMethod(info, n, "Guard", method) || g.windowOps[originFunc(calleeFunc(info, n))] == op {
				found = true
			}
		}
		return !found
	})
	return found
}

// isGuardMethod reports whether fn is a method of stm.Guard.
func isGuardMethod(fn *types.Func) bool {
	named := recvNamed(fn)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Guard" && obj.Pkg() != nil && isSTMPath(obj.Pkg().Path())
}

// reportReach runs the searcher from every call on the synchronous
// path under stmts and reports the first reachable effect per call
// site, positioned at the call (so suppression stays local to the
// window) with the chain in the message. seen deduplicates across
// overlapping windows; format receives the chain head's display name
// and the rendered chain.
func (p *Pass) reportReach(stmts []ast.Stmt, s *reachSearcher, seen map[string]bool, format func(head, chain string) string) {
	info := p.Pkg.Info
	for _, stmt := range stmts {
		p.Graph.inspectSyncPath(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			// A call already flagged as a lexical effect (reportLexical
			// runs first and records its positions) is one finding, not
			// two: don't chase what it reaches.
			if seen[posKey(call.Pos())] {
				return true
			}
			chain, eff, found := s.fromCall(info, call)
			if !found {
				return true
			}
			msg := format(funcDisplayName(chain[0]), s.describeChain(chain, eff))
			key := dedupKey(call.Pos(), msg)
			if !seen[key] {
				seen[key] = true
				p.Reportf(call.Pos(), "%s", msg)
			}
			return true
		})
	}
}

// reportLexical reports every effect the detector finds lexically under
// stmts, at the effect's own position, deduplicated across overlapping
// windows.
func (p *Pass) reportLexical(stmts []ast.Stmt, detect func(root ast.Node) []effect, seen map[string]bool, format func(desc string) string) {
	for _, stmt := range stmts {
		for _, e := range detect(stmt) {
			seen[posKey(e.pos)] = true
			msg := format(e.desc)
			key := dedupKey(e.pos, msg)
			if !seen[key] {
				seen[key] = true
				p.Reportf(e.pos, "%s", msg)
			}
		}
	}
}

// posKey marks a position as lexically reported, letting reportReach
// skip calls that are themselves the finding.
func posKey(pos token.Pos) string {
	return "pos:" + strconv.Itoa(int(pos))
}

// dedupKey identifies a diagnostic for cross-window deduplication (a
// statement can sit in two overlapping windows when an inner block
// opens its own window inside a wider one).
func dedupKey(pos token.Pos, msg string) string {
	return strconv.Itoa(int(pos)) + "|" + msg
}
