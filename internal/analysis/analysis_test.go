package analysis_test

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"tcc/internal/analysis"
)

// One loader is shared across all tests: the expensive part is
// type-checking the stdlib and internal/stm from source, and the
// loader caches packages by import path.
var (
	loaderOnce sync.Once
	loaderErr  error
	shared     *analysis.Loader
)

func getLoader(t *testing.T) *analysis.Loader {
	t.Helper()
	loaderOnce.Do(func() {
		wd, err := os.Getwd()
		if err != nil {
			loaderErr = err
			return
		}
		root, err := analysis.FindModuleRoot(wd)
		if err != nil {
			loaderErr = err
			return
		}
		shared, loaderErr = analysis.NewLoader(root)
	})
	if loaderErr != nil {
		t.Fatalf("loader: %v", loaderErr)
	}
	return shared
}

// loadFixture type-checks testdata/<name> and returns it with the
// loader that owns its FileSet.
func loadFixture(t *testing.T, name string) (*analysis.Loader, *analysis.Package) {
	t.Helper()
	l := getLoader(t)
	dir := filepath.Join(l.ModuleDir, "internal", "analysis", "testdata", name)
	pkg, err := l.LoadDir(dir, "tcc/internal/analysis/testdata/"+name)
	if err != nil {
		t.Fatalf("load %s: %v", name, err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("fixture %s does not type-check: %v", name, pkg.TypeErrors)
	}
	return l, pkg
}

// collectWant scans a fixture for "// want rule-id [rule-id ...]"
// comments and returns the expected rule IDs keyed by file:line.
func collectWant(fset *token.FileSet, pkg *analysis.Package) map[string][]string {
	want := make(map[string][]string)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
				want[key] = append(want[key], strings.Fields(text)[1:]...)
			}
		}
	}
	for _, ids := range want {
		sort.Strings(ids)
	}
	return want
}

// runFixture checks a fixture package against its want comments. Every
// want comment must be matched by a diagnostic of that rule on that
// line, and every diagnostic must be announced by a want comment —
// which is also what keeps the "clean" cases in each fixture honest.
// The call graph spans the fixture alone unless it names module
// packages (deps, relative to the module root) whose bodies a finding
// of its reaches through — as `stmlint` spans every package it loads.
func runFixture(t *testing.T, name string, deps ...string) {
	t.Helper()
	l, pkg := loadFixture(t, name)
	want := collectWant(l.Fset, pkg)
	if len(want) == 0 && name != "suppress" {
		t.Fatalf("fixture %s has no want comments", name)
	}
	pkgs := []*analysis.Package{pkg}
	for _, dep := range deps {
		p, err := l.LoadDir(filepath.Join(l.ModuleDir, filepath.FromSlash(dep)), l.ModulePath+"/"+dep)
		if err != nil {
			t.Fatalf("load %s: %v", dep, err)
		}
		pkgs = append(pkgs, p)
	}
	got := make(map[string][]string)
	for _, d := range analysis.CheckWithGraph(l.Fset, pkg, analysis.BuildCallGraph(l.Fset, pkgs)).Diagnostics {
		key := fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line)
		got[key] = append(got[key], d.Rule)
	}
	for _, ids := range got {
		sort.Strings(ids)
	}
	for key, ids := range want {
		if !reflect.DeepEqual(got[key], ids) {
			t.Errorf("%s: want %v, got %v", key, ids, got[key])
		}
	}
	for key, ids := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: unexpected diagnostics %v", key, ids)
		}
	}
}

func TestNestedAtomicFixture(t *testing.T) { runFixture(t, "nestedatomic") }
func TestTxEscapeFixture(t *testing.T)     { runFixture(t, "txescape") }
func TestNakedVarFixture(t *testing.T)     { runFixture(t, "nakedvar") }
func TestNondetFixture(t *testing.T)       { runFixture(t, "nondet") }
func TestHandlerTxnFixture(t *testing.T)   { runFixture(t, "handlertxn") }
func TestUncheckedFixture(t *testing.T)    { runFixture(t, "unchecked") }

func TestTraceInCommitFixture(t *testing.T) { runFixture(t, "traceincommit") }

// The guard-order fixture's tx.Nested case is found only by following
// the call into the STM (Tx.Nested → Tx.compensate → Tx.window →
// acquireGuards).
func TestGuardOrderFixture(t *testing.T) { runFixture(t, "guardorder", "internal/stm") }
func TestCommitBlockingFixture(t *testing.T) {
	runFixture(t, "commitblocking")
}

// TestProtocolWindowsFixture covers the protocol seam's hold windows:
// the write-set lockword span shared by every protocol's commit and
// NOrec's sequence-lock span, one fixture file per protocol.
func TestProtocolWindowsFixture(t *testing.T) { runFixture(t, "protocolwindows") }
func TestWriteInReadonlyFixture(t *testing.T) { runFixture(t, "writeinreadonly") }

// TestOpenSectionFixture covers the directives of a helper that runs the
// function it is handed under a guard (//stmlint:window around) or as a
// transaction body (//stmlint:txbody); its Atomic cases reach the guard
// acquisition and the emission inside the STM.
func TestOpenSectionFixture(t *testing.T) { runFixture(t, "opensection", "internal/stm") }

// TestSuppress proves //stmlint:ignore silences exactly the named
// rule: three suppressed violations yield nothing, and a directive for
// the wrong rule leaves its diagnostic standing.
func TestSuppress(t *testing.T) { runFixture(t, "suppress") }

// TestEveryRuleHasFixture keeps the corpus in sync with the rule set:
// each registered rule must fire somewhere in testdata.
func TestEveryRuleHasFixture(t *testing.T) {
	fired := make(map[string]bool)
	for _, name := range []string{"nestedatomic", "txescape", "nakedvar", "nondet", "handlertxn", "unchecked", "traceincommit", "guardorder", "commitblocking", "protocolwindows", "writeinreadonly"} {
		l, pkg := loadFixture(t, name)
		for _, d := range analysis.Check(l.Fset, pkg) {
			fired[d.Rule] = true
		}
	}
	for _, r := range analysis.Rules() {
		if !fired[r.ID] {
			t.Errorf("rule %s never fires on the fixture corpus", r.ID)
		}
	}
}

// TestRepoClean lints every package in the module against one
// module-wide call graph, mirroring the `stmlint ./...` CI gate: the
// repository must hold its own discipline, including the
// interprocedural rules' cross-package reachability.
func TestRepoClean(t *testing.T) {
	l := getLoader(t)
	paths, err := l.ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*analysis.Package
	for _, path := range paths {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		pkg, err := l.LoadDir(filepath.Join(l.ModuleDir, filepath.FromSlash(rel)), path)
		if err != nil {
			t.Fatalf("load %s: %v", path, err)
		}
		if len(pkg.TypeErrors) > 0 {
			t.Fatalf("type errors in %s: %v", path, pkg.TypeErrors[0])
		}
		pkgs = append(pkgs, pkg)
	}
	g := analysis.BuildCallGraph(l.Fset, pkgs)
	for _, pkg := range pkgs {
		for _, d := range analysis.CheckWithGraph(l.Fset, pkg, g).Diagnostics {
			t.Errorf("%s: %s", pkg.Path, d)
		}
	}
}

// TestWindowDirectiveNotName: hold-window helpers, and the helpers that run
// the function they are handed under a guard or as a transaction body, are
// found by the //stmlint: directive in their doc comment, not by what they
// are called. A fixture with every helper renamed yields the same
// diagnostics on the same lines; with the directives stripped (names
// intact) it has no windows and no such bodies left and yields none —
// outside opensection's lexical.go, the half of that fixture that is
// written without them.
func TestWindowDirectiveNotName(t *testing.T) {
	l := getLoader(t)
	stm, err := l.LoadDir(filepath.Join(l.ModuleDir, "internal", "stm"), l.ModulePath+"/internal/stm")
	if err != nil {
		t.Fatal(err)
	}
	for fixture, rename := range map[string]*strings.Replacer{
		"protocolwindows": strings.NewReplacer(
			"lockWriteSet", "takeWords", "installWriteSet", "publishWords",
			"norecSeqAcquire", "seqTake", "norecSeqRelease", "seqGive"),
		"opensection": strings.NewReplacer(
			"lockSpan", "sweep", "unlockSpan", "unsweep",
			"held(", "pinned(", "section(", "enter(", "open(", "child("),
	} {
		src := filepath.Join(l.ModuleDir, "internal", "analysis", "testdata", fixture)
		entries, err := os.ReadDir(src)
		if err != nil {
			t.Fatal(err)
		}
		variant := func(name string, edit *strings.Replacer) []string {
			dir := t.TempDir()
			for _, e := range entries {
				text, err := os.ReadFile(filepath.Join(src, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, e.Name()), []byte(edit.Replace(string(text))), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			pkg, err := l.LoadDir(dir, "tcc/internal/analysis/testdata/"+fixture+"_"+name)
			if err != nil || len(pkg.TypeErrors) > 0 {
				t.Fatalf("load %s %s: %v %v", fixture, name, err, pkg.TypeErrors)
			}
			var got []string
			graph := analysis.BuildCallGraph(l.Fset, []*analysis.Package{pkg, stm})
			for _, d := range analysis.CheckWithGraph(l.Fset, pkg, graph).Diagnostics {
				got = append(got, fmt.Sprintf("%s:%d %s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Rule))
			}
			return got
		}
		base := variant("asis", strings.NewReplacer())
		renamed := variant("renamed", rename)
		stripped := variant("stripped", strings.NewReplacer("//stmlint:window", "// window", "//stmlint:txbody", "// txbody"))
		if len(base) == 0 || !reflect.DeepEqual(base, renamed) {
			t.Errorf("%s: renaming the helpers changed the findings:\n as is   %v\n renamed %v", fixture, base, renamed)
		}
		for _, d := range stripped {
			if !strings.HasPrefix(d, "lexical.go:") {
				t.Errorf("%s: without directives the fixture has no windows, yet: %s", fixture, d)
			}
		}
	}
}
