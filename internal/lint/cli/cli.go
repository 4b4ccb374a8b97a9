// Package cli implements the simlint command: flag parsing, the
// go-vet-style exit-code contract and the two output formats. It lives
// apart from cmd/simlint so the contract is testable in-process.
package cli

import (
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"strings"

	"mkos/internal/lint/analysis"
	"mkos/internal/lint/checks"
)

// Exit codes, mirroring go vet: clean tree, findings, and
// usage-or-internal error. CI treats 1 as "annotate and fail the gate"
// and 2 as "the gate itself is broken".
const (
	ExitClean    = 0
	ExitFindings = 1
	ExitError    = 2
)

// Run executes simlint with the given arguments (not including the
// program name) and returns the process exit code. Diagnostics and the
// JSON report go to stdout; usage and internal errors go to stderr.
func Run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON document (for CI annotation)")
	listOnly := fs.Bool("l", false, "print findings as a bare file:line list (for editors)")
	fix := fs.Bool("fix", false, "apply suggested fixes to the tree, then re-lint the result")
	checksFlag := fs.String("checks", "", "comma-separated subset of checks to run (default: all)")
	dir := fs.String("dir", ".", "module root to analyze (directory containing go.mod)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: simlint [-json] [-l] [-fix] [-checks c1,c2] [-dir root] [./...]\n\n")
		fmt.Fprintf(stderr, "simlint checks the simulator's determinism and safety invariants.\n")
		fmt.Fprintf(stderr, "Checks:\n")
		for _, a := range checks.All() {
			fmt.Fprintf(stderr, "  %-16s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(stderr, "\nExit: 0 no findings, 1 findings, 2 usage or internal error.\n")
		fmt.Fprintf(stderr, "With -fix, findings that remain after applying fixes exit 1; a fix\n")
		fmt.Fprintf(stderr, "that does not converge (the re-lint still suggests fixes) exits 2.\n")
		fmt.Fprintf(stderr, "Suppress a finding with //simlint:allow <check> — <reason>.\n")
	}
	if err := fs.Parse(args); err != nil {
		return ExitError
	}
	// The only accepted package pattern is the whole module; anything
	// else is a usage error so scripts fail loudly rather than lint a
	// subset silently.
	for _, arg := range fs.Args() {
		if arg != "./..." {
			fmt.Fprintf(stderr, "simlint: unsupported package pattern %q (only ./... )\n", arg)
			fs.Usage()
			return ExitError
		}
	}

	analyzers, err := selectChecks(*checksFlag)
	if err != nil {
		fmt.Fprintf(stderr, "simlint: %v\n", err)
		fs.Usage()
		return ExitError
	}

	diags, fset, err := lintTree(*dir, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "simlint: %v\n", err)
		return ExitError
	}

	var applied []bool
	report := diags
	nonConverged := false
	if *fix {
		applied, report, nonConverged, err = applyAndRelint(*dir, analyzers, fset, diags, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "simlint: %v\n", err)
			return ExitError
		}
	}

	switch {
	case *jsonOut:
		// Under -fix the JSON report is the pre-fix finding set with
		// applied marks — the complete record of what the run saw and
		// what it rewrote.
		if err := analysis.WriteJSON(stdout, diags, applied); err != nil {
			fmt.Fprintf(stderr, "simlint: %v\n", err)
			return ExitError
		}
	case *listOnly:
		for _, d := range report {
			fmt.Fprintf(stdout, "%s:%d\n", d.Position.Filename, d.Position.Line)
		}
	default:
		for _, d := range report {
			fmt.Fprintln(stdout, d.String())
		}
	}
	if nonConverged {
		fmt.Fprintf(stderr, "simlint: -fix did not converge: the rewritten tree still suggests fixes\n")
		return ExitError
	}
	if len(report) > 0 {
		return ExitFindings
	}
	return ExitClean
}

// lintTree loads the module at dir and runs the analyzers over it,
// returning the diagnostics and the FileSet their positions live in.
func lintTree(dir string, analyzers []*analysis.Analyzer) ([]analysis.Diagnostic, *token.FileSet, error) {
	loader := analysis.NewLoader()
	pkgs, err := loader.LoadModule(dir)
	if err != nil {
		return nil, nil, err
	}
	diags, err := analysis.Run(pkgs, analyzers, checks.All())
	return diags, loader.Fset, err
}

// applyAndRelint is the -fix pass: apply every suggested fix to the
// tree, write the rewritten files, then lint the result from scratch.
// The second run is the idempotence check — a fix engine whose output
// still carries suggested fixes would rewrite the tree forever, and
// that is an internal error (exit 2), not a finding. Returns the
// per-diagnostic applied marks, the post-fix findings, and whether the
// fixes failed to converge.
func applyAndRelint(dir string, analyzers []*analysis.Analyzer, fset *token.FileSet,
	diags []analysis.Diagnostic, stderr io.Writer) ([]bool, []analysis.Diagnostic, bool, error) {
	res, err := analysis.ApplyFixes(fset, diags)
	if err != nil {
		return nil, nil, false, err
	}
	for filename, content := range res.Files {
		mode := os.FileMode(0o644)
		if st, err := os.Stat(filename); err == nil {
			mode = st.Mode().Perm()
		}
		if err := os.WriteFile(filename, content, mode); err != nil {
			return nil, nil, false, err
		}
	}
	fmt.Fprintf(stderr, "simlint: -fix applied %d fix(es) across %d file(s), %d skipped\n",
		res.Applied, len(res.Files), res.Skipped)
	if res.Applied == 0 {
		return res.AppliedDiag, diags, false, nil
	}
	after, _, err := lintTree(dir, analyzers)
	if err != nil {
		return nil, nil, false, err
	}
	for _, d := range after {
		if d.Fix != nil {
			return res.AppliedDiag, after, true, nil
		}
	}
	return res.AppliedDiag, after, false, nil
}

// selectChecks resolves the -checks flag to a subset of the suite.
func selectChecks(spec string) ([]*analysis.Analyzer, error) {
	all := checks.All()
	if spec == "" {
		return all, nil
	}
	byName := map[string]*analysis.Analyzer{}
	var names []string
	for _, a := range all {
		byName[a.Name] = a
		names = append(names, a.Name)
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown check %q (valid: %s)", name, strings.Join(names, ", "))
		}
		out = append(out, a)
	}
	return out, nil
}
