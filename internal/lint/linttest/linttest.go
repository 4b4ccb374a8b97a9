// Package linttest is simlint's analogue of
// golang.org/x/tools/go/analysis/analysistest: it runs one analyzer over
// a corpus directory and checks the reported diagnostics against
// expectations written as comments in the corpus files themselves.
//
// An expectation is a trailing comment of the form
//
//	badCall() // want "regexp matching the message"
//
// Every line carrying a want-comment must receive at least one matching
// diagnostic, every diagnostic must be claimed by a want-comment on its
// line, and multiple want-clauses on one line each claim one
// diagnostic. //simlint:allow suppressions are applied before matching,
// so corpora demonstrate accepted suppressions simply by carrying an
// allow directive and no want.
//
// Two further entry points serve the v2 framework: RunDirs loads several
// corpus directories through one shared loader — the ordered, identity-
// sharing load is what lets object facts exported while analyzing one
// corpus package be found when its importer is analyzed — and RunFix
// applies every suggested fix in memory and compares the rewritten files
// against checked-in .golden siblings.
package linttest

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"mkos/internal/lint/analysis"
)

var wantRe = regexp.MustCompile(`// want (.*)$`)
var clauseRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// Run loads the corpus package in dir under the fake import path
// pkgPath, runs a (with suppressions applied) and matches diagnostics
// against the corpus's want-comments.
func Run(t *testing.T, a *analysis.Analyzer, dir, pkgPath string) {
	t.Helper()
	RunAnalyzers(t, []*analysis.Analyzer{a}, dir, pkgPath)
}

// RunAnalyzers is Run for a set of analyzers sharing one corpus — used
// by the suppression tests, where malformed directives surface as
// "simlint" diagnostics alongside the analyzer's own.
func RunAnalyzers(t *testing.T, as []*analysis.Analyzer, dir, pkgPath string) {
	t.Helper()
	RunDirs(t, as, Dir{Path: dir, PkgPath: pkgPath})
}

// Dir names one corpus directory and the import path to load it under.
type Dir struct {
	Path    string
	PkgPath string
}

// RunDirs loads every corpus directory in order through one shared
// loader and runs the analyzers over all of them together. Later dirs
// may import earlier ones by their fake PkgPath — the loader resolves
// the import to the already-loaded instance, so cross-package facts flow
// exactly as they do in a tree-wide run. Want-comments are matched
// across all dirs at once.
func RunDirs(t *testing.T, as []*analysis.Analyzer, dirs ...Dir) {
	t.Helper()
	loader := analysis.NewLoader()
	var pkgs []*analysis.Package
	for _, d := range dirs {
		pkg, err := loader.LoadDir(d.Path, d.PkgPath)
		if err != nil {
			t.Fatalf("loading corpus %s: %v", d.Path, err)
		}
		pkgs = append(pkgs, pkg)
	}
	diags, err := analysis.Run(pkgs, as, as)
	if err != nil {
		t.Fatalf("running %d analyzer(s): %v", len(as), err)
	}
	var wants []want
	for _, d := range dirs {
		wants = append(wants, collectWants(t, d.Path)...)
	}
	matchWants(t, diags, wants)
}

// RunFix runs a over the corpus, matches want-comments as Run does, then
// applies every suggested fix in memory and compares each rewritten file
// to its checked-in <name>.golden sibling. Every .golden in the corpus
// must be produced and every rewritten file must have a .golden — fixes
// and expectations cannot drift apart silently.
func RunFix(t *testing.T, a *analysis.Analyzer, dir, pkgPath string) {
	t.Helper()
	loader := analysis.NewLoader()
	pkg, err := loader.LoadDir(dir, pkgPath)
	if err != nil {
		t.Fatalf("loading corpus %s: %v", dir, err)
	}
	diags, err := analysis.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{a}, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}
	matchWants(t, diags, collectWants(t, dir))

	res, err := analysis.ApplyFixes(loader.Fset, diags)
	if err != nil {
		t.Fatalf("applying fixes: %v", err)
	}
	if res.Applied == 0 {
		t.Fatalf("fix corpus %s produced no applicable fixes", dir)
	}
	for filename, content := range res.Files {
		golden := filename + ".golden"
		wantBytes, err := os.ReadFile(golden)
		if err != nil {
			t.Errorf("fix rewrote %s but no golden exists: %v", filename, err)
			continue
		}
		if !bytes.Equal(content, wantBytes) {
			t.Errorf("fixed %s differs from %s:\n--- got ---\n%s\n--- want ---\n%s",
				filename, golden, content, wantBytes)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading corpus dir: %v", err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".golden") {
			continue
		}
		src := filepath.Join(dir, strings.TrimSuffix(e.Name(), ".golden"))
		if _, ok := res.Files[src]; !ok {
			t.Errorf("golden %s has no corresponding rewritten file", e.Name())
		}
	}
}

// matchWants pairs diagnostics with want-comments one-to-one and reports
// both unmet wants and unclaimed diagnostics.
func matchWants(t *testing.T, diags []analysis.Diagnostic, wants []want) {
	t.Helper()
	matched := make([]bool, len(diags))
	for _, w := range wants {
		found := false
		for i, d := range diags {
			if matched[i] || d.Position.Filename != w.file || d.Position.Line != w.line {
				continue
			}
			if w.re.MatchString(d.Message) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
	for i, d := range diags {
		if !matched[i] {
			t.Errorf("%s: unexpected diagnostic: [%s] %s",
				posString(d), d.Check, d.Message)
		}
	}
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
}

func posString(d analysis.Diagnostic) string {
	return fmt.Sprintf("%s:%d:%d", d.Position.Filename, d.Position.Line, d.Position.Column)
}

// collectWants scans every corpus file for want-comments.
func collectWants(t *testing.T, dir string) []want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading corpus dir: %v", err)
	}
	var wants []want
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading %s: %v", path, err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			clauses := clauseRe.FindAllStringSubmatch(m[1], -1)
			if len(clauses) == 0 {
				t.Fatalf("%s:%d: malformed want comment %q", path, i+1, line)
			}
			for _, c := range clauses {
				// The clause is a Go string literal in raw source text;
				// unquote it so \\. becomes the regexp escape \. .
				pat, err := strconv.Unquote(c[0])
				if err != nil {
					t.Fatalf("%s:%d: unquoting want clause %q: %v", path, i+1, c[0], err)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", path, i+1, pat, err)
				}
				wants = append(wants, want{file: path, line: i + 1, re: re})
			}
		}
	}
	return wants
}
