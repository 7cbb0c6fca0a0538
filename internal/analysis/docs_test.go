package analysis_test

import (
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"tcc/internal/analysis"
)

// TestDesignRuleTable keeps DESIGN.md §8 honest: the rule table's ID
// column must list exactly the registered rules, in registration
// order. A rule added, renamed, or removed without its documentation
// row fails here, not in review.
func TestDesignRuleTable(t *testing.T) {
	l := getLoader(t)
	data, err := os.ReadFile(filepath.Join(l.ModuleDir, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	start := strings.Index(text, "## 8.")
	if start < 0 {
		t.Fatal("DESIGN.md has no section 8")
	}
	end := strings.Index(text[start:], "\n## 9.")
	if end < 0 {
		end = len(text) - start
	}
	section := text[start : start+end]

	var documented []string
	for _, line := range strings.Split(section, "\n") {
		rest, ok := strings.CutPrefix(line, "| `")
		if !ok {
			continue
		}
		id, _, ok := strings.Cut(rest, "`")
		if !ok {
			continue
		}
		documented = append(documented, id)
	}

	var registered []string
	for _, r := range analysis.Rules() {
		registered = append(registered, r.ID)
	}
	if strings.Join(documented, " ") != strings.Join(registered, " ") {
		t.Errorf("DESIGN.md §8 rule table out of sync with analysis.Rules():\n  documented: %v\n  registered: %v",
			documented, registered)
	}
}

// TestDocsNameExistingFiles keeps the prose honest about the tree: every
// backticked file name in README.md, DESIGN.md and EXPERIMENTS.md — a
// token without spaces that starts with a letter and ends in .go, .sh,
// .md, .json or .txt, optionally :line — is a file under the module
// root, given either from the root or by a path suffix exactly one file
// has, and a :line lies within it; and every `go test -run Name` in
// DESIGN.md §5's index matches a `func Name…` in a _test.go file of the
// package it names.
func TestDocsNameExistingFiles(t *testing.T) {
	root := getLoader(t).ModuleDir
	var files []string // slash paths relative to root
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		files = append(files, "/"+filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	token := regexp.MustCompile("`([A-Za-z][^`\\s]*\\.(?:go|sh|md|json|txt))(?::([0-9]+))?`")
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		data, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range token.FindAllStringSubmatch(line, -1) {
				var hits []string
				for _, f := range files {
					if f == "/"+m[1] {
						hits = []string{f}
						break
					}
					if strings.HasSuffix(f, "/"+m[1]) {
						hits = append(hits, f)
					}
				}
				if len(hits) != 1 {
					t.Errorf("%s:%d: `%s` names %d files %v, want exactly one", doc, i+1, m[1], len(hits), hits)
					continue
				}
				if m[2] == "" {
					continue
				}
				text, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(hits[0])))
				if err != nil {
					t.Fatal(err)
				}
				if n, _ := strconv.Atoi(m[2]); n < 1 || n > strings.Count(string(text), "\n")+1 {
					t.Errorf("%s:%d: `%s:%s` is past the end of the file", doc, i+1, m[1], m[2])
				}
			}
		}
	}

	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, index, ok := strings.Cut(string(design), "\n## 5.")
	if !ok {
		t.Fatal("DESIGN.md has no section 5")
	}
	index, _, _ = strings.Cut(index, "\n## 6.")
	runs := regexp.MustCompile("`go test -run (\\w+)(?: \\./(\\S+))?`").FindAllStringSubmatch(index, -1)
	if len(runs) == 0 {
		t.Fatal("DESIGN.md §5 names no `go test -run` command")
	}
	for _, m := range runs {
		tests, err := filepath.Glob(filepath.Join(root, filepath.FromSlash(m[2]), "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, f := range tests {
			text, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			found = found || strings.Contains(string(text), "\nfunc "+m[1])
		}
		if !found {
			t.Errorf("DESIGN.md §5: `go test -run %s ./%s` matches no test function there", m[1], m[2])
		}
	}
}

// TestChangesEntriesAreShort holds CHANGES.md to its cap: every entry
// headed `PR N:` has at most 250 words outside fenced blocks (its
// result tables). An entry runs to the next `PR N:` line.
func TestChangesEntriesAreShort(t *testing.T) {
	const firstCapped, maxWords = 1, 250
	data, err := os.ReadFile(filepath.Join(getLoader(t).ModuleDir, "CHANGES.md"))
	if err != nil {
		t.Fatal(err)
	}
	head := regexp.MustCompile(`^PR (\d+):`)
	pr, words, fenced := 0, 0, false
	check := func() {
		if pr >= firstCapped && words > maxWords {
			t.Errorf("CHANGES.md: the PR %d entry has %d words outside fenced blocks, want at most %d", pr, words, maxWords)
		}
	}
	checked := 0
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			continue
		}
		if m := head.FindStringSubmatch(line); m != nil {
			check()
			pr, _ = strconv.Atoi(m[1])
			words = 0
			if pr >= firstCapped {
				checked++
			}
		}
		words += len(strings.Fields(line))
	}
	check()
	if checked == 0 {
		t.Fatalf("CHANGES.md has no entry headed `PR N:` with N >= %d", firstCapped)
	}
}

// TestDocsNameExistingAPI keeps the prose honest about the module's
// API, so a PR that deletes a name cannot leave its ghost in the docs:
// inside the backticks of README.md, DESIGN.md and EXPERIMENTS.md, every
// `pkg.X` (`pkg.X.Y`) whose pkg is the name of a non-main package of the
// module names a package-level object of it (and a field or method of
// that object's type); every `tx.X` and `Tx.X` names a field or method
// of stm.Tx, every `th.X` and `Thread.X` one of stm.Thread, and every
// `proto.X` a method of stm.Protocol — resolved through the loader's
// type information. After a package name and after the variables `tx.`
// and `th.` only exported names are checked: lower-case ones there are
// event, metric and file names (`tx.begin`, `stm.open_commits_per_tx`,
// `metrics.go`). No event or metric is spelled `proto.`, so there the
// unexported hooks are checked too.
func TestDocsNameExistingAPI(t *testing.T) {
	l := getLoader(t)
	paths, err := l.ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	pkgs := map[string]*types.Package{}
	for _, path := range paths {
		pkg, err := l.Import(path)
		if err != nil {
			t.Fatal(err)
		}
		if pkg.Name() == "main" {
			continue
		}
		if pkgs[pkg.Name()] != nil {
			t.Fatalf("two module packages are named %s: `%s.X` in the docs is ambiguous", pkg.Name(), pkg.Name())
		}
		pkgs[pkg.Name()] = pkg
	}
	stm := pkgs["stm"]
	if stm == nil {
		t.Fatal("no module package is named stm")
	}
	// member reports whether pkg's object obj has a field or method name.
	member := func(pkg *types.Package, obj types.Object, name string) bool {
		found, _, _ := types.LookupFieldOrMethod(obj.Type(), true, pkg, name)
		return found != nil
	}
	receivers := map[string]string{"tx": "Tx", "Tx": "Tx", "th": "Thread", "Thread": "Thread", "proto": "Protocol"}
	prefixes := []string{"tx", "Tx", "th", "Thread", "proto"}
	for name := range pkgs {
		prefixes = append(prefixes, name)
	}
	name := regexp.MustCompile(`\b(` + strings.Join(prefixes, "|") + `)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?`)
	checked := 0
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		data, err := os.ReadFile(filepath.Join(l.ModuleDir, doc))
		if err != nil {
			t.Fatal(err)
		}
		// A span may run over a line break, so whether text is inside
		// backticks carries from line to line; fenced blocks are skipped.
		fenced, inside := false, false
		for i, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			for j, seg := range strings.Split(line, "`") {
				if j > 0 {
					inside = !inside
				}
				if !inside {
					continue
				}
				for _, m := range name.FindAllStringSubmatch(seg, -1) {
					var ok bool
					switch typ, pkg := receivers[m[1]], pkgs[m[1]]; {
					case pkg != nil:
						if !ast.IsExported(m[2]) {
							continue
						}
						obj := pkg.Scope().Lookup(m[2])
						ok = obj != nil && (m[3] == "" || member(pkg, obj, m[3]))
					case m[1] != typ && m[1] != "proto" && !ast.IsExported(m[2]):
						continue
					default:
						ok = member(stm, stm.Scope().Lookup(typ), m[2])
					}
					checked++
					if !ok {
						t.Errorf("%s:%d: `%s` names nothing in the module", doc, i+1, m[0])
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no API name found in the docs: the pattern has rotted")
	}
}
