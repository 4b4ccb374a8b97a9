package checks

import (
	"go/ast"
	"go/token"
	"path"
	"slices"
	"strconv"

	"mkos/internal/lint/analysis"
)

// rule forbids, in every package its scope admits, importing a package
// under one of imports and calling one of calls. A rule holds by
// construction rather than by convention: nothing in its scope needs the
// forbidden import or call, so a breach is a mistake, not a judgment.
type rule struct {
	scope   func(pkgPath string) bool
	imports []string // path prefixes: "math/rand" covers math/rand/v2
	calls   []string // package-level functions, "importpath.Name"
	why     string
}

// rules is the module's table of forbidden imports and calls. Test files
// are out of scope: only the code that ships is bound.
var rules = []rule{
	{
		// internal/sim included: sim.Rand is its own generator.
		scope:   func(string) bool { return true },
		imports: []string{"math/rand"},
		why: "all randomness must flow through sim.Rand, seeded and derivable, so a trial's " +
			"draws are a pure function of its seed",
	},
	{
		// Pure time values and arithmetic (time.Duration, time.Unix) carry
		// no ambient clock and stay legal.
		scope: func(p string) bool { return !isOpsPackage(p) },
		calls: []string{"time.Now", "time.Since", "time.Until", "time.Sleep", "time.After",
			"time.Tick", "time.NewTimer", "time.NewTicker", "time.AfterFunc"},
		why: "simulated time must come from the engine (sim.Engine.Now, sim.Timer); the host " +
			"clock is legal only in ops-side packages (internal/sweep, cmd/*)",
	},
	{
		scope:   func(p string) bool { return !isOpsPackage(p) },
		imports: []string{"mkos/internal/telemetry/ops"},
		why: "the ops flight recorder is wall-clock, process-wide state; deterministic code " +
			"records through internal/telemetry, and ops spans are propagated by the " +
			"orchestrator via context",
	},
	{
		// The runner owns the exit status of the report-writing commands;
		// simd and simlint keep their own exit contracts.
		scope: func(p string) bool {
			return under(p, "mkos/cmd") && !under(p, "mkos/cmd/internal/runner") &&
				!under(p, "mkos/cmd/simd") && !under(p, "mkos/cmd/simlint")
		},
		calls: []string{"os.Exit", "log.Fatal", "log.Fatalf", "log.Fatalln"},
		why:   "return the error to runner.Main, which flushes stdout and owns the exit status",
	},
}

// exceptions are the listed forbidden calls, keyed by package, enclosing
// function and call, each with its reason.
var exceptions = map[[3]string]string{
	{"mkos/cmd/simctl", "main", "os.Exit"}: "a missing command is a usage error: exit 2 like a " +
		"flag error, before runner.Main starts",
}

// Violation is one breach of the rules table.
type Violation struct {
	Pos     token.Pos
	Message string
}

// Violations applies the rules table to one non-test file of package
// pkgPath. It reads only the file's imports and selector calls, so it
// needs no type information.
func Violations(pkgPath string, f *ast.File) []Violation {
	var out []Violation
	imported := map[string]string{} // local name -> import path
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imported[name] = p
		for _, r := range rules {
			if r.scope(pkgPath) && slices.ContainsFunc(r.imports, func(pre string) bool { return under(p, pre) }) {
				out = append(out, Violation{imp.Pos(), "package " + pkgPath + " imports " + p + ": " + r.why})
			}
		}
	}
	for _, decl := range f.Decls {
		fn := ""
		if d, ok := decl.(*ast.FuncDecl); ok {
			fn = d.Name.Name
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			x, ok := sel.X.(*ast.Ident)
			if !ok || imported[x.Name] == "" {
				return true
			}
			use := imported[x.Name] + "." + sel.Sel.Name
			for _, r := range rules {
				if r.scope(pkgPath) && slices.Contains(r.calls, use) && exceptions[[3]string{pkgPath, fn, use}] == "" {
					out = append(out, Violation{call.Pos(), "package " + pkgPath + " calls " + use + ": " + r.why})
				}
			}
			return true
		})
	}
	return out
}

// Forbidden reports every breach of the rules table. Exceptions are rows
// of the table, not //simlint:allow directives: TestTreeObeysRulesTable
// applies the same table to the tree and honors no directive.
var Forbidden = &analysis.Analyzer{
	Name: "forbidden",
	Doc: "forbid math/rand everywhere, host-clock reads and internal/telemetry/ops in " +
		"deterministic packages, and os.Exit/log.Fatal* in cmd/ outside the runner, simd and simlint",
	Run: func(pass *analysis.Pass) error {
		for _, f := range pass.Files {
			for _, v := range Violations(pass.Pkg.Path(), f) {
				pass.Reportf(v.Pos, "%s", v.Message)
			}
		}
		return nil
	},
}
