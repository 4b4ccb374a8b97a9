package analysis

import (
	"encoding/json"
	"io"
	"sort"
)

// Run executes every analyzer over every package in dependency order
// (imported packages first, so facts a pass exports while analyzing a
// defining package are visible to the passes over its importers),
// applies each package's //simlint:allow suppressions, and returns the
// surviving diagnostics sorted by (file, line, column, check, message)
// — the order is part of the determinism contract simlint itself
// enforces, so its own output is byte-stable across runs and -j levels
// of the caller. suite names every check a directive may name; analyzers
// may be a subset of it (simlint -checks), and a directive naming a check
// outside the subset is valid and silences nothing.
func Run(pkgs []*Package, analyzers, suite []*Analyzer) ([]Diagnostic, error) {
	known := map[string]bool{}
	for _, a := range suite {
		known[a.Name] = true
	}
	facts := newFactStore()
	var all []Diagnostic
	for _, pkg := range dependencyOrder(pkgs) {
		var diags []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				diags:     &diags,
				facts:     facts,
			}
			if err := a.Run(pass); err != nil {
				return nil, err
			}
		}
		all = append(all, applySuppressions(pkg, diags, known)...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	return all, nil
}

// dependencyOrder returns pkgs with every package after the packages it
// imports (restricted to the given set). The input order breaks ties,
// so the result is deterministic for the loader's sorted walks.
func dependencyOrder(pkgs []*Package) []*Package {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.PkgPath] = p
	}
	out := make([]*Package, 0, len(pkgs))
	seen := make(map[string]bool, len(pkgs))
	var visit func(p *Package)
	visit = func(p *Package) {
		if seen[p.PkgPath] {
			return
		}
		seen[p.PkgPath] = true
		for _, imp := range p.Types.Imports() {
			if dep, ok := byPath[imp.Path()]; ok {
				visit(dep)
			}
		}
		out = append(out, p)
	}
	for _, p := range pkgs {
		visit(p)
	}
	return out
}

// jsonFinding is the machine-readable form of one diagnostic, consumed
// by the CI annotation step. Field order is part of the output contract
// (pinned by a golden test): check, file, line, col, message, then the
// optional fix block.
type jsonFinding struct {
	Check   string   `json:"check"`
	File    string   `json:"file"`
	Line    int      `json:"line"`
	Col     int      `json:"col"`
	Message string   `json:"message"`
	Fix     *jsonFix `json:"fix,omitempty"`
}

// jsonFix summarizes a diagnostic's suggested fix: what applying it
// does, how many text edits it takes, and — under -fix — whether the
// run applied it.
type jsonFix struct {
	Message string `json:"message"`
	Edits   int    `json:"edits"`
	Applied bool   `json:"applied"`
}

// WriteJSON emits the diagnostics as a single JSON document:
// {"findings": [...]} with findings in the Run sort order. An empty run
// emits an empty (non-null) findings array so consumers can index
// unconditionally. applied, when non-nil, parallels diags and marks the
// findings whose fix the caller wrote to disk (FixResult.AppliedDiag
// under simlint -fix); nil means nothing was applied.
func WriteJSON(w io.Writer, diags []Diagnostic, applied []bool) error {
	findings := make([]jsonFinding, 0, len(diags))
	for i, d := range diags {
		f := jsonFinding{
			Check:   d.Check,
			File:    d.Position.Filename,
			Line:    d.Position.Line,
			Col:     d.Position.Column,
			Message: d.Message,
		}
		if d.Fix != nil {
			f.Fix = &jsonFix{
				Message: d.Fix.Message,
				Edits:   len(d.Fix.Edits),
				Applied: applied != nil && applied[i],
			}
		}
		findings = append(findings, f)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Findings []jsonFinding `json:"findings"`
	}{findings})
}
