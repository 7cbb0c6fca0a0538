package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// commit-window-blocking: nothing reachable from a commit-guard hold
// window or a handler body may block. A commit window serializes every
// transaction sharing its guards; a blocked window turns one slow
// transaction into a convoy ("On the Cost of Concurrency in TM" is the
// PAPERS.md entry arguing the window must stay tight). The blocking
// vocabulary covered: time.Sleep, channel send/receive (including
// range-over-channel and select without a default), sync.Mutex/RWMutex
// Lock/RLock, sync.WaitGroup.Wait, sync.Cond.Wait, os file I/O,
// os/exec, net, and stdout/log output. Trusted and skipped: the guard
// machinery itself (acquireGuards and friends — footprint acquisition
// is ordered and IS the window boundary), stm.Guard's methods, the
// /concurrent package (the deliberately lock-based baselines the
// benchmarks compare against, reachable through CHA over-approximation
// from any collections interface call), /obs (its emission inside
// windows is trace-in-commit's finding; reporting it twice under two
// rule IDs would double every diagnostic), and /obs/metrics (the live
// metrics plane's increment paths are atomic-only and are designed to
// run inside hold windows).
var ruleCommitBlocking = &Rule{
	ID:  "commit-window-blocking",
	Doc: "blocking operation (sleep, channel, mutex, I/O) reachable from a commit-guard hold window or handler",
	Run: runCommitBlocking,
}

// osBlockingFuncs are the os package functions treated as blocking I/O.
var osBlockingFuncs = map[string]bool{
	"Create": true, "CreateTemp": true, "Mkdir": true, "MkdirAll": true,
	"MkdirTemp": true, "Open": true, "OpenFile": true, "Pipe": true,
	"ReadDir": true, "ReadFile": true, "Remove": true, "RemoveAll": true,
	"Rename": true, "Stat": true, "Lstat": true, "Symlink": true,
	"Truncate": true, "WriteFile": true,
}

// osFileMethods are the *os.File methods treated as blocking I/O.
var osFileMethods = map[string]bool{
	"Read": true, "ReadAt": true, "ReadDir": true, "Write": true,
	"WriteAt": true, "WriteString": true, "Close": true, "Sync": true,
	"Seek": true, "Stat": true, "Truncate": true,
}

// netPureFuncs are net package functions that only parse or format and
// never touch the network.
var netPureFuncs = map[string]bool{
	"ParseIP": true, "ParseCIDR": true, "ParseMAC": true,
	"SplitHostPort": true, "JoinHostPort": true, "CIDRMask": true,
	"IPv4": true, "IPv4Mask": true,
}

// syncBlockingMethods are the sync package methods that park the
// goroutine (Unlock/Broadcast/Signal/Done never block).
var syncBlockingMethods = map[string]bool{
	"Lock": true, "RLock": true, "Wait": true,
}

// outputFuncs are fmt/log calls that write to the process's streams.
var outputFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fatal": true, "Fatalf": true, "Fatalln": true,
	"Panic": true, "Panicf": true, "Panicln": true, "Output": true,
}

func runCommitBlocking(p *Pass) {
	g := p.Graph
	searcher := g.newSearcher(func(n *callNode) []effect {
		return blockingEffectsIn(g, n.pkg.Info, n.decl.Body)
	}, g.blockingTrusted)

	info := p.Pkg.Info
	seen := make(map[string]bool)
	check := func(stmts []ast.Stmt, where string) {
		p.reportLexical(stmts, func(root ast.Node) []effect {
			return blockingEffectsIn(g, info, root)
		}, seen, func(desc string) string {
			return desc + " inside a " + where + "; a blocked window stalls every transaction sharing its guards — move the operation outside the guard"
		})
		p.reportReach(stmts, searcher, seen, func(head, chain string) string {
			return "call to " + head + " inside a " + where + " may block (" + chain + "); a blocked window stalls every transaction sharing its guards"
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

// blockingTrusted prunes the reachability search at nodes whose
// blocking is sanctioned or already another rule's finding.
func (g *CallGraph) blockingTrusted(fn *types.Func) bool {
	if g.windowOps[fn] != 0 || isGuardMethod(fn) {
		return true
	}
	if pkg := fn.Pkg(); pkg != nil {
		path := pkg.Path()
		if strings.HasSuffix(path, "/concurrent") || isObsPath(path) || isMetricsPath(path) {
			return true
		}
	}
	return false
}

// isMetricsPath matches the live metrics plane (internal/obs/metrics),
// trusted inside windows by design: its increment paths (Counter.Add,
// Summary.Observe, Gauge.Set) are atomic-only, and registration —
// which does take a mutex — happens at collection-construction time,
// never inside a window.
func isMetricsPath(path string) bool {
	return path == "metrics" || strings.HasSuffix(path, "/obs/metrics")
}

// blockingEffectsIn collects the blocking operations lexically present
// on the synchronous path under root, in source order. select needs
// bespoke traversal — its comm clauses (`case <-ch:`) are attempted
// non-blockingly once a default exists, so only a default-less select
// is itself an effect, and comm expressions are never individual ones.
func blockingEffectsIn(g *CallGraph, info *types.Info, root ast.Node) []effect {
	var effs []effect
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		if n == nil {
			return
		}
		if sel, ok := n.(*ast.SelectStmt); ok {
			hasDefault := false
			for _, c := range sel.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				effs = append(effs, effect{sel.Pos(), "select with no default case"})
			}
			for _, c := range sel.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					for _, stmt := range cc.Body {
						walk(stmt)
					}
				}
			}
			return
		}
		g.inspectSyncPath(n, func(c ast.Node) bool {
			switch c := c.(type) {
			case *ast.SelectStmt:
				// Never the root here — a select root is intercepted
				// above — so recursing cannot loop.
				walk(c)
				return false
			case *ast.SendStmt:
				effs = append(effs, effect{c.Arrow, "channel send"})
			case *ast.UnaryExpr:
				if c.Op == token.ARROW {
					effs = append(effs, effect{c.OpPos, "channel receive"})
				}
			case *ast.RangeStmt:
				if tv, ok := info.Types[c.X]; ok {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
						effs = append(effs, effect{c.For, "range over channel"})
					}
				}
			case *ast.CallExpr:
				if e, ok := blockingCall(info, c); ok {
					effs = append(effs, e)
				}
			}
			return true
		})
	}
	walk(root)
	return effs
}

// blockingCall classifies a call expression as a blocking operation by
// its callee's package and name.
func blockingCall(info *types.Info, call *ast.CallExpr) (effect, bool) {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return effect{}, false
	}
	path := fn.Pkg().Path()
	name := fn.Name()
	named := recvNamed(fn)
	blocked := func(what string) (effect, bool) {
		return effect{call.Pos(), "call to " + what}, true
	}
	switch {
	case path == "time" && name == "Sleep":
		return blocked("time.Sleep")
	case path == "sync" && named != nil && syncBlockingMethods[name]:
		return blocked("sync." + named.Obj().Name() + "." + name)
	case path == "os" && named == nil && osBlockingFuncs[name]:
		return blocked("os." + name)
	case path == "os" && named != nil && named.Obj().Name() == "File" && osFileMethods[name]:
		return blocked("os.File." + name)
	case path == "os/exec":
		return blocked("os/exec." + name)
	case (path == "net" || strings.HasPrefix(path, "net/")) && !(path == "net" && netPureFuncs[name]):
		what := path + "." + name
		if named != nil {
			what = path + "." + named.Obj().Name() + "." + name
		}
		return blocked(what)
	case (path == "fmt" || path == "log") && outputFuncs[name]:
		what := path + "." + name
		if named != nil {
			what = path + "." + named.Obj().Name() + "." + name
		}
		return blocked(what)
	}
	return effect{}, false
}
