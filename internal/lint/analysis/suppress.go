package analysis

import (
	"go/ast"
	"go/token"
	"os"
	"sort"
	"strings"
)

// Suppression directives.
//
// A finding is silenced with a //simlint:allow directive naming the check
// and giving a non-empty reason after an em-dash (or "--"):
//
//	//simlint:allow ctxflow — a root context for the demo, not a request path
//	ctx := context.Background()
//
// Placed on its own line, the directive covers the complete construct
// that starts on the next code line — a statement (however many lines it
// spans, including any nested block), a declaration, a struct field, or
// a composite-literal element — but nothing after it. Placed at the end
// of a line of code, it covers that line only. A directive with an
// unknown check name, a missing reason, or naming an Unsuppressible check
// is itself a finding (check "simlint"): silent or unexplained
// suppressions are precisely what a determinism gate must not accumulate.

// allowDirective is one parsed //simlint:allow comment.
type allowDirective struct {
	check    string
	file     string
	line     int       // line the comment starts on
	ownLine  bool      // comment is alone on its line → scopes to next statement
	from, to token.Pos // statement range covered (ownLine only)
	bad      string    // non-empty: malformed; message to report
	pos      token.Pos
}

const allowPrefix = "//simlint:allow"

// applySuppressions filters diags through the package's allow directives
// and appends one "simlint" diagnostic per malformed directive. known
// maps the valid check names to their analyzers for directive validation.
func applySuppressions(pkg *Package, diags []Diagnostic, known map[string]*Analyzer) []Diagnostic {
	var allows []allowDirective
	for _, f := range pkg.Files {
		allows = append(allows, collectAllows(pkg, f, known)...)
	}
	out := diags[:0]
	for _, d := range diags {
		if !suppressed(d, allows) {
			out = append(out, d)
		}
	}
	for _, a := range allows {
		if a.bad != "" {
			out = append(out, Diagnostic{
				Check:    "simlint",
				Pos:      a.pos,
				Position: pkg.Fset.Position(a.pos),
				Message:  a.bad,
			})
		}
	}
	return out
}

func suppressed(d Diagnostic, allows []allowDirective) bool {
	for _, a := range allows {
		if a.bad != "" || a.check != d.Check || a.file != d.Position.Filename {
			continue
		}
		if a.ownLine {
			if a.from.IsValid() && a.from <= d.Pos && d.Pos <= a.to {
				return true
			}
		} else if a.line == d.Position.Line {
			return true
		}
	}
	return false
}

// collectAllows parses every simlint:allow comment in f and resolves each
// own-line directive to the statement or declaration it covers.
func collectAllows(pkg *Package, f *ast.File, known map[string]*Analyzer) []allowDirective {
	var allows []allowDirective
	var src *sourceLines
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, allowPrefix) {
				continue
			}
			if src == nil {
				src = readSourceLines(pkg.Fset.Position(c.Pos()).Filename)
			}
			a := parseAllow(c, pkg.Fset, src)
			if an := known[a.check]; a.bad == "" && an == nil {
				a.bad = "simlint:allow names unknown check \"" + a.check +
					"\"; valid checks: " + strings.Join(sortedNames(known), ", ")
			} else if a.bad == "" && an.Unsuppressible {
				a.bad = "simlint:allow cannot silence check \"" + a.check +
					"\": its exceptions are rows of its own table, not directives"
			}
			if a.bad == "" && a.ownLine {
				a.from, a.to = nextCoveredRange(f, c.End())
			}
			allows = append(allows, a)
		}
	}
	return allows
}

func parseAllow(c *ast.Comment, fset *token.FileSet, src *sourceLines) allowDirective {
	pos := fset.Position(c.Pos())
	a := allowDirective{
		file:    pos.Filename,
		line:    pos.Line,
		pos:     c.Pos(),
		ownLine: src.onlyWhitespaceBefore(pos.Line, pos.Column),
	}
	rest := strings.TrimPrefix(c.Text, allowPrefix)
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		a.bad = "simlint:allow is missing a check name: want //simlint:allow <check> — <reason>"
		return a
	}
	a.check = fields[0]
	rest = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), fields[0]))
	var reason string
	switch {
	case strings.HasPrefix(rest, "—"):
		reason = strings.TrimSpace(strings.TrimPrefix(rest, "—"))
	case strings.HasPrefix(rest, "--"):
		reason = strings.TrimSpace(strings.TrimPrefix(rest, "--"))
	default:
		a.bad = "simlint:allow " + a.check + " is missing its reason: want //simlint:allow " +
			a.check + " — <reason>"
		return a
	}
	if reason == "" {
		a.bad = "simlint:allow " + a.check + " has an empty reason: every suppression must say why"
	}
	return a
}

// sourceLines answers "is this comment alone on its line" from the raw
// file bytes — the syntax tree cannot, because an enclosing block's Pos/
// End span covers the comment's line whether or not code shares it.
type sourceLines struct {
	lines []string
}

func readSourceLines(filename string) *sourceLines {
	data, err := os.ReadFile(filename)
	if err != nil {
		return &sourceLines{}
	}
	return &sourceLines{lines: strings.Split(string(data), "\n")}
}

func (s *sourceLines) onlyWhitespaceBefore(line, col int) bool {
	if line-1 < 0 || line-1 >= len(s.lines) {
		return true
	}
	text := s.lines[line-1]
	if col-1 > len(text) {
		return true
	}
	return strings.TrimSpace(text[:col-1]) == ""
}

// nextCoveredRange returns the source range an own-line directive at pos
// covers: the full extent of the outermost construct whose first token
// is the next code token after the directive. Finding the first token
// and then widening to the largest node that starts exactly there makes
// the scope the complete multi-line statement (or declaration, struct
// field, or composite-literal element) the author wrote the directive
// above — never just its first line, and never a construct that began
// before the directive. Comments are skipped so a directive may sit
// above an explanatory comment block.
func nextCoveredRange(f *ast.File, pos token.Pos) (token.Pos, token.Pos) {
	first := token.NoPos
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.Comment, *ast.CommentGroup:
			return true
		}
		if n.Pos() >= pos && (!first.IsValid() || n.Pos() < first) {
			first = n.Pos()
		}
		return true
	})
	if !first.IsValid() {
		return token.NoPos, token.NoPos
	}
	end := first
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.Comment, *ast.CommentGroup:
			return true
		}
		if n.Pos() == first && n.End() > end {
			end = n.End()
		}
		return true
	})
	return first, end
}

func sortedNames(m map[string]*Analyzer) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
