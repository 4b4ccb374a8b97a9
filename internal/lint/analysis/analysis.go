// Package analysis is a self-contained reimplementation of the core of
// golang.org/x/tools/go/analysis, shaped API-for-API so the simlint
// analyzers read exactly like upstream go/analysis passes and can be
// ported onto the real multichecker with a one-line import change.
//
// Why not the real thing: this repository builds with zero external
// module dependencies (the determinism CI runs fully offline), and
// x/tools is not vendored. Everything the simlint analyzers need —
// parsed files, full go/types information, position reporting — is
// available from the standard library: go/parser for syntax,
// go/importer's source importer for type-checking module-local imports
// without export data, and go/token for positions. See
// internal/lint/README.md for the analyzer catalogue.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check. The shape mirrors
// x/tools/go/analysis.Analyzer minus the Requires/ResultOf plumbing,
// which simlint's independent passes do not need. Cross-package state
// flows through facts instead: a pass attaches facts to objects or to
// its package, and passes over importing packages read them back.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, -checks filters and
	// //simlint:allow suppressions. Lowercase, no spaces.
	Name string
	// Doc is the one-paragraph invariant statement printed by -help.
	Doc string
	// Unsuppressible marks a check whose exceptions live in its own
	// table: a //simlint:allow directive naming it is itself a finding
	// and silences nothing, so a test that applies the table to the tree
	// and simlint never disagree.
	Unsuppressible bool
	// Run executes the analyzer over one package and reports findings
	// through the pass. A non-nil error aborts the whole simlint run
	// (exit 2), so analyzers reserve it for internal invariant failures,
	// never for findings.
	Run func(*Pass) error
}

// Fact is a piece of analyzer-scoped information attached to an object
// and visible to later passes of the same analyzer over
// importing packages. Implementations are pointer types; AFact is a
// marker with no behavior, exactly as in x/tools/go/analysis.
type Fact interface{ AFact() }

// Pass carries one package's syntax and type information to an
// analyzer's Run function.
type Pass struct {
	Analyzer *Analyzer
	// Fset maps token.Pos values in Files to file:line:column.
	Fset *token.FileSet
	// Files is the package's parsed syntax, test files excluded.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds Uses/Defs/Types/Selections for Files.
	TypesInfo *types.Info

	diags *[]Diagnostic
	facts *factStore
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Check:    p.Analyzer.Name,
		Pos:      pos,
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportfFix records a finding at pos carrying a machine-applicable
// suggested fix. simlint -fix applies the fix's edits textually.
func (p *Pass) ReportfFix(pos token.Pos, fix *SuggestedFix, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Check:    p.Analyzer.Name,
		Pos:      pos,
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Fix:      fix,
	})
}

// ExportObjectFact attaches fact to obj for later passes of the same
// analyzer. The fact must be a pointer; obj must not be nil.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	p.facts.exportObject(p.Analyzer, obj, fact)
}

// ImportObjectFact copies the fact of ptr's concrete type previously
// exported for obj (by any package's pass of this analyzer) into ptr,
// reporting whether one was found.
func (p *Pass) ImportObjectFact(obj types.Object, ptr Fact) bool {
	return p.facts.importObject(p.Analyzer, obj, ptr)
}

// TextEdit replaces the source range [Pos, End) with NewText. End may
// equal Pos for a pure insertion.
type TextEdit struct {
	Pos, End token.Pos
	NewText  string
}

// SuggestedFix is a machine-applicable repair for one diagnostic: a set
// of non-overlapping text edits within the diagnosed package's files.
// simlint -fix applies every suggested fix textually and verifies the
// result is a fixpoint (a second run proposes no further edits).
type SuggestedFix struct {
	// Message says what applying the fix does, imperative mood
	// ("replace the stale capture with e.Now()").
	Message string
	Edits   []TextEdit
}

// Diagnostic is one finding, resolved to a concrete source position.
type Diagnostic struct {
	// Check is the reporting analyzer's name ("simlint" for diagnostics
	// produced by the driver itself, e.g. malformed allow directives).
	Check string
	// Pos is the raw token position within the run's FileSet.
	Pos token.Pos
	// Position is Pos resolved to file, line and column.
	Position token.Position
	// Message states the violated invariant.
	Message string
	// Fix, when non-nil, is a machine-applicable repair (simlint -fix).
	Fix *SuggestedFix
}

// String renders the go-vet-style "file:line:col: [check] message" form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s",
		d.Position.Filename, d.Position.Line, d.Position.Column, d.Check, d.Message)
}
