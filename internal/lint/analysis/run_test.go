package analysis_test

import (
	"bytes"
	"go/ast"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mkos/internal/lint/analysis"
)

// fake flags every call to a function literally named "flagme" — enough
// surface to pin down suppression semantics without a real invariant.
var fake = &analysis.Analyzer{
	Name: "fake",
	Doc:  "flags calls to flagme",
	Run: func(pass *analysis.Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "flagme" {
					pass.Reportf(call.Pos(), "flagme called")
				}
				return true
			})
		}
		return nil
	},
}

const suppressionSrc = `package p

func flagme() {}

func plain() {
	flagme() // line 6: reported
}

func covered() {
	//simlint:allow fake — first statement is covered
	flagme()
	flagme() // line 12: scope ended, reported
}

func emptyReason() {
	//simlint:allow fake —
	flagme() // line 17: not suppressed, directive malformed
}

func doubleDash() {
	//simlint:allow fake -- ascii double-dash reason form
	flagme()
}

func unknownCheck() {
	//simlint:allow nosuchcheck — reason present
	flagme() // line 27: not suppressed, check name invalid
}
`

func loadSrc(t *testing.T, src string) *analysis.Package {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loader := analysis.NewLoader()
	pkg, err := loader.LoadDir(dir, "fake/p")
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

func TestSuppressionSemantics(t *testing.T) {
	pkg := loadSrc(t, suppressionSrc)
	diags, err := analysis.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{fake}, []*analysis.Analyzer{fake})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, d.Check+"@"+strconv.Itoa(d.Position.Line))
	}
	want := []string{
		"fake@6",     // plain call
		"fake@12",    // second statement after an own-line directive
		"simlint@16", // empty reason is malformed
		"fake@17",    // ...and does not suppress
		"simlint@26", // unknown check name is malformed
		"fake@27",    // ...and does not suppress
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("diagnostics:\n got %v\nwant %v", got, want)
	}
	for _, d := range diags {
		if d.Check != "simlint" {
			continue
		}
		if !strings.Contains(d.Message, "reason") && !strings.Contains(d.Message, "unknown check") {
			t.Errorf("simlint diagnostic lacks a grammar hint: %s", d.Message)
		}
	}
}

func TestRunSortsAndEncodesJSON(t *testing.T) {
	pkg := loadSrc(t, suppressionSrc)
	diags, err := analysis.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{fake}, []*analysis.Analyzer{fake})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(diags); i++ {
		if diags[i].Position.Line < diags[i-1].Position.Line {
			t.Errorf("diagnostics out of order: line %d before %d",
				diags[i-1].Position.Line, diags[i].Position.Line)
		}
	}
	var buf bytes.Buffer
	if err := analysis.WriteJSON(&buf, diags, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"findings"`) || !strings.Contains(buf.String(), `"check": "fake"`) {
		t.Errorf("JSON output missing expected fields:\n%s", buf.String())
	}
	buf.Reset()
	if err := analysis.WriteJSON(&buf, nil, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"findings": []`) {
		t.Errorf("empty run must emit an empty findings array, got:\n%s", buf.String())
	}
}

// TestUnsuppressibleCheck: a directive naming an Unsuppressible check is a
// simlint finding, in own-line and trailing form, and silences nothing.
func TestUnsuppressibleCheck(t *testing.T) {
	strict := *fake
	strict.Unsuppressible = true
	pkg := loadSrc(t, `package p

func flagme() {}

func f() {
	//simlint:allow fake — reason present
	flagme() // line 7: reported
	flagme() //simlint:allow fake — reason present
}
`)
	diags, err := analysis.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{&strict}, []*analysis.Analyzer{&strict})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, d.Check+"@"+strconv.Itoa(d.Position.Line))
		if d.Check == "simlint" && !strings.Contains(d.Message, `cannot silence check "fake"`) {
			t.Errorf("simlint diagnostic does not name the check: %s", d.Message)
		}
	}
	want := "simlint@6 fake@7 fake@8 simlint@8"
	if strings.Join(got, " ") != want {
		t.Errorf("diagnostics:\n got %v\nwant %v", got, want)
	}
}
