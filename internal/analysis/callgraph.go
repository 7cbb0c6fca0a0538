package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"sync"
)

// This file is the interprocedural engine under stmlint. Atomos could
// enforce its discipline whole-program because the compiler saw every
// call; the per-function rules that sufficed for the early rule set
// stop sufficing once the properties under check are themselves
// interprocedural — "no path out of a commit window blocks" and "no
// path acquires a second guard" are statements about everything
// reachable from the window, not about the window's own statements. The
// CallGraph gives every rule the same whole-module view: one node per
// declared function or method, call edges resolved at build time
// (including interface calls, via CHA-style name matching), and a
// bounded-depth reachability search that reconstructs the offending
// call chain for the diagnostic.
//
// Soundness caveats, by construction:
//
//   - Function values are not tracked: a call through a func-typed
//     variable, field, or parameter has no outgoing edge (the STM's
//     handler execution — h() over registered closures — is the big
//     instance, and handler bodies are covered separately as analysis
//     roots).
//   - Interface calls resolve by method-set matching on name and
//     arity (parameter and result counts) against every named type
//     declared in the module — full signature identity is not checked,
//     a deliberate over-approximation that stays correct under
//     generics, where instantiation-sensitive types.Implements checks
//     would be both fiddly and incomplete. Arity is part of the match
//     because it too is preserved by instantiation, and it is what
//     separates the plain collections (Get(k)) from the transactional
//     wrappers (Get(tx, k)) that share their method names.
//   - Reachability stops after reachBudget call edges; a blocking
//     operation buried deeper than the budget is not reported. The
//     budget exists to keep diagnostics explainable — a ten-edge chain
//     is not something a reviewer can act on — and to bound the search.
//   - Calls under a go statement are off the synchronous path and grow
//     no edges (the spawned body neither blocks the window nor holds
//     its guards); likewise function literals registered as handlers,
//     which run later under their own guard and are separate roots.
type CallGraph struct {
	fset *token.FileSet
	pkgs []*Package

	// nodes maps every declared function or method with a body (keyed
	// by its origin object, so generic instantiations collapse onto one
	// node) to its declaration and resolved callees.
	nodes map[*types.Func]*callNode

	// litKinds classifies every function literal in every spanned file
	// (see bodyKind); the walkCtx machinery and the window scanners
	// share it so "handler body" means the same thing everywhere.
	litKinds map[*ast.FuncLit]bodyKind

	// handlerFuncs and txBodyFuncs are *named* functions the module
	// registers as handlers or passes as transaction bodies anywhere —
	// the interprocedural generalization of the literal classification:
	// a function declared in package A and registered in package B is
	// classified when either package is analyzed.
	handlerFuncs map[*types.Func]bool
	txBodyFuncs  map[*types.Func]bool

	// readonlyBodyFuncs is the subset of txBodyFuncs passed to
	// Thread.AtomicRead somewhere: transaction bodies that declared
	// themselves read-only and must not reach a write.
	readonlyBodyFuncs map[*types.Func]bool

	// windowOps records the functions whose doc comment carries a
	// //stmlint:window directive (see windows.go), txBodyHelpers those
	// that carry //stmlint:txbody (see classifyArgs).
	windowOps     map[*types.Func]windowOp
	txBodyHelpers map[*types.Func]bool

	// concretes indexes every named type declared in the module by its
	// explicit method-name set, in deterministic order, for CHA
	// resolution of interface calls.
	concretes []*typeMethods

	// chaMu guards chaCache: rules resolve call targets while packages
	// are checked in parallel, and handler-literal call sites are not
	// pre-resolved at build time.
	chaMu    sync.Mutex
	chaCache map[*types.Func][]*types.Func
}

// callNode is one declared function in the graph.
type callNode struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Package
	// callees are the node's resolved outgoing edges, deduplicated, in
	// source order (CHA fan-out in declaration order).
	callees []*types.Func
}

// typeMethods is the CHA index entry for one named type: its
// explicitly declared methods by name (promotion through embedding is
// not followed — none of the module's transactional types rely on it).
type typeMethods struct {
	byName map[string]*types.Func
}

// reachBudget caps how many call edges a reachability query follows
// from a window or handler. Deep enough for the module's real chains
// (window → collection helper → semantic-lock table → Violate is four
// edges); shallow enough that every reported chain fits in one
// diagnostic line.
const reachBudget = 8

// originFunc collapses a possibly-instantiated function object onto
// its generic origin, the canonical node key.
func originFunc(fn *types.Func) *types.Func {
	if fn == nil {
		return nil
	}
	return fn.Origin()
}

// declFunc resolves a function declaration to its types.Func.
func declFunc(info *types.Info, fd *ast.FuncDecl) *types.Func {
	fn, _ := info.Defs[fd.Name].(*types.Func)
	return originFunc(fn)
}

// exprFunc resolves an expression used as a function value (a handler
// or body argument) to the named function it denotes, or nil when it
// is a literal, a variable, or anything else the graph cannot name.
func exprFunc(info *types.Info, e ast.Expr) *types.Func {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[e].(*types.Func)
		return originFunc(fn)
	case *ast.SelectorExpr:
		fn, _ := info.Uses[e.Sel].(*types.Func)
		return originFunc(fn)
	}
	return nil
}

// BuildCallGraph builds the module-wide graph over pkgs. The build is
// serial; the finished graph is read-only apart from the mutex-guarded
// CHA cache, so packages can then be checked concurrently against it.
func BuildCallGraph(fset *token.FileSet, pkgs []*Package) *CallGraph {
	sorted := make([]*Package, len(pkgs))
	copy(sorted, pkgs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })

	g := &CallGraph{
		fset:              fset,
		pkgs:              sorted,
		nodes:             make(map[*types.Func]*callNode),
		litKinds:          make(map[*ast.FuncLit]bodyKind),
		handlerFuncs:      make(map[*types.Func]bool),
		txBodyFuncs:       make(map[*types.Func]bool),
		readonlyBodyFuncs: make(map[*types.Func]bool),
		windowOps:         make(map[*types.Func]windowOp),
		txBodyHelpers:     make(map[*types.Func]bool),
		chaCache:          make(map[*types.Func][]*types.Func),
	}

	// Pass 1: nodes, directives and the CHA type index.
	for _, pkg := range sorted {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn := declFunc(pkg.Info, fd); fn != nil {
					g.nodes[fn] = &callNode{fn: fn, decl: fd, pkg: pkg}
					if op := windowDirective(fd.Doc); op != 0 {
						g.windowOps[fn] = op
					}
					if hasDirective(fd.Doc, "//stmlint:txbody") {
						g.txBodyHelpers[fn] = true
					}
				}
			}
		}
		g.indexTypes(pkg)
	}

	// Pass 2: literal kinds and named handler/body registration — after
	// the directives, which classify what is passed to a helper declared
	// in any package.
	for _, pkg := range sorted {
		for _, f := range pkg.Files {
			g.classifyArgs(pkg.Info, f)
		}
	}

	// Pass 3: resolve each node's outgoing edges. Iterate files, not
	// the node map, so edge order is deterministic.
	for _, pkg := range sorted {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn := declFunc(pkg.Info, fd)
				if n := g.nodes[fn]; n != nil {
					n.callees = g.collectCallees(pkg.Info, fd.Body)
				}
			}
		}
	}
	return g
}

// indexTypes adds pkg's named types to the CHA index. Scope names are
// already sorted, keeping the index deterministic.
func (g *CallGraph) indexTypes(pkg *Package) {
	if pkg.Types == nil {
		return
	}
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || named.NumMethods() == 0 {
			continue
		}
		tm := &typeMethods{byName: make(map[string]*types.Func)}
		for i := 0; i < named.NumMethods(); i++ {
			m := originFunc(named.Method(i))
			tm.byName[m.Name()] = m
		}
		g.concretes = append(g.concretes, tm)
	}
}

// collectCallees resolves every call on the synchronous path under
// body to graph nodes, deduplicated in first-appearance order.
func (g *CallGraph) collectCallees(info *types.Info, body ast.Node) []*types.Func {
	var out []*types.Func
	seen := make(map[*types.Func]bool)
	g.inspectSyncPath(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			for _, t := range g.Targets(info, call) {
				if !seen[t] {
					seen[t] = true
					out = append(out, t)
				}
			}
		}
		return true
	})
	return out
}

// inspectSyncPath walks n, pruning subtrees that do not execute on the
// enclosing function's synchronous path: go statements (the spawned
// call runs concurrently) and function literals registered as handlers
// or launched as goroutines (they are analysis roots of their own).
// Plain closures and transaction-body literals are walked — in this
// codebase both are invoked inline.
func (g *CallGraph) inspectSyncPath(n ast.Node, visit func(ast.Node) bool) {
	ast.Inspect(n, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.GoStmt:
			return false
		case *ast.FuncLit:
			if k := g.litKinds[c]; k == bodyHandler || k == bodyGo {
				return false
			}
		}
		if c == nil {
			return true
		}
		return visit(c)
	})
}

// Targets resolves a call expression to the graph nodes it may invoke:
// the called function itself when it is declared in the module, or —
// for an interface method — every module type whose method-name set
// covers the interface (CHA by name; see the type comment's caveats).
// Calls to the standard library or through function values resolve to
// nothing.
func (g *CallGraph) Targets(info *types.Info, call *ast.CallExpr) []*types.Func {
	fn := originFunc(calleeFunc(info, call))
	if fn == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		return g.implementers(fn)
	}
	if g.nodes[fn] != nil {
		return []*types.Func{fn}
	}
	return nil
}

// implementers returns the module methods an interface method call may
// dispatch to, caching per interface method.
func (g *CallGraph) implementers(iface *types.Func) []*types.Func {
	g.chaMu.Lock()
	defer g.chaMu.Unlock()
	if out, ok := g.chaCache[iface]; ok {
		return out
	}
	out := []*types.Func{}
	sig := iface.Type().(*types.Signature)
	if it, ok := sig.Recv().Type().Underlying().(*types.Interface); ok {
		for _, tm := range g.concretes {
			covers := true
			for i := 0; i < it.NumMethods(); i++ {
				im := it.Method(i)
				m := tm.byName[im.Name()]
				if m == nil || !arityMatch(m, im) {
					covers = false
					break
				}
			}
			if !covers {
				continue
			}
			if m := tm.byName[iface.Name()]; m != nil && g.nodes[m] != nil {
				out = append(out, m)
			}
		}
	}
	g.chaCache[iface] = out
	return out
}

// arityMatch reports whether a concrete method could satisfy an
// interface method: same parameter and result counts. Interface
// satisfaction requires identical signatures, so count equality is a
// sound relaxation — and unlike full identity it survives generic
// instantiation unchanged.
func arityMatch(m, im *types.Func) bool {
	ms, ok1 := m.Type().(*types.Signature)
	is, ok2 := im.Type().(*types.Signature)
	return ok1 && ok2 &&
		ms.Params().Len() == is.Params().Len() &&
		ms.Results().Len() == is.Results().Len()
}

// effect is one forbidden operation found lexically in a function body
// or window — what it is, and where.
type effect struct {
	pos  token.Pos
	desc string
}

// reachSearcher runs bounded-depth reachability queries for one rule:
// direct computes a node's own effects (memoized), skip prunes trusted
// nodes — neither scanned nor traversed through.
type reachSearcher struct {
	g      *CallGraph
	direct func(n *callNode) []effect
	skip   func(fn *types.Func) bool
	cache  map[*types.Func][]effect
	mu     sync.Mutex
}

// newSearcher creates a searcher over the graph. A searcher may be
// shared across concurrently-checked packages; its memo is locked.
func (g *CallGraph) newSearcher(direct func(n *callNode) []effect, skip func(fn *types.Func) bool) *reachSearcher {
	return &reachSearcher{g: g, direct: direct, skip: skip, cache: make(map[*types.Func][]effect)}
}

// directEffects returns the memoized lexical effects of fn's body.
func (s *reachSearcher) directEffects(fn *types.Func) []effect {
	s.mu.Lock()
	effs, ok := s.cache[fn]
	s.mu.Unlock()
	if ok {
		return effs
	}
	effs = []effect{}
	if n := s.g.nodes[fn]; n != nil {
		effs = s.direct(n)
	}
	s.mu.Lock()
	s.cache[fn] = effs
	s.mu.Unlock()
	return effs
}

// fromCall searches everything reachable from call within reachBudget
// call edges (BFS, so the reported chain is a shortest one) and returns
// the first effect found together with the chain of functions leading
// to it, ordered from the call's target to the effect's owner.
func (s *reachSearcher) fromCall(info *types.Info, call *ast.CallExpr) (chain []*types.Func, eff effect, found bool) {
	type item struct {
		fn     *types.Func
		parent int // index into items, -1 for roots
		depth  int
	}
	var items []item
	visited := make(map[*types.Func]bool)
	enqueue := func(fn *types.Func, parent, depth int) {
		if !visited[fn] && !s.skip(fn) {
			visited[fn] = true
			items = append(items, item{fn, parent, depth})
		}
	}
	for _, t := range s.g.Targets(info, call) {
		enqueue(t, -1, 1)
	}
	for i := 0; i < len(items); i++ {
		it := items[i]
		if effs := s.directEffects(it.fn); len(effs) > 0 {
			for j := i; j >= 0; j = items[j].parent {
				chain = append(chain, items[j].fn)
			}
			for a, b := 0, len(chain)-1; a < b; a, b = a+1, b-1 {
				chain[a], chain[b] = chain[b], chain[a]
			}
			return chain, effs[0], true
		}
		if it.depth >= reachBudget {
			continue
		}
		if n := s.g.nodes[it.fn]; n != nil {
			for _, callee := range n.callees {
				enqueue(callee, i, it.depth+1)
			}
		}
	}
	return nil, effect{}, false
}

// funcDisplayName renders a function compactly for chain diagnostics:
// Type.Method for methods, package.Func otherwise.
func funcDisplayName(fn *types.Func) string {
	if named := recvNamed(fn); named != nil {
		return named.Obj().Name() + "." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// describeChain renders "a → b → <effect> (file:line)" for a
// reachability diagnostic.
func (s *reachSearcher) describeChain(chain []*types.Func, eff effect) string {
	var b []byte
	for _, fn := range chain {
		b = append(b, funcDisplayName(fn)...)
		b = append(b, " → "...)
	}
	b = append(b, eff.desc...)
	pos := s.g.fset.Position(eff.pos)
	b = append(b, " ("...)
	b = append(b, shortPath(pos.Filename)...)
	b = append(b, ':')
	var num [12]byte
	i := len(num)
	for l := pos.Line; ; {
		i--
		num[i] = byte('0' + l%10)
		l /= 10
		if l == 0 {
			break
		}
	}
	b = append(b, num[i:]...)
	b = append(b, ')')
	return string(b)
}

// shortPath trims a path to its final element for in-message positions
// (the diagnostic's own Pos carries the full path).
func shortPath(p string) string {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '/' {
			return p[i+1:]
		}
	}
	return p
}
