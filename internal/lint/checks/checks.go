// Package checks holds the six simlint analyzers. Each one encodes a
// determinism or safety invariant of the simulator that the end-to-end
// double-run cmp gates can only witness after the fact; the analyzers
// catch the violation at the offending line instead. forbidden applies
// the module's table of forbidden imports and calls from syntax alone
// (a tier-1 test applies the same table to the tree); maporder and
// simtime are per-file syntax-and-types checks; lockguard, ctxflow and
// opstaint use the framework's cross-package facts and dataflow. See
// internal/lint/README.md for the catalogue, example findings and the
// suppression syntax.
package checks

import (
	"go/ast"
	"go/types"
	"strings"

	"mkos/internal/lint/analysis"
)

// All returns the full analyzer suite in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Forbidden, Maporder, Simtime,
		Lockguard, Ctxflow, Opstaint,
	}
}

// opsPrefixes lists the package-path prefixes where wall-clock time and
// process-wide operational state are legal: the sweep orchestrator's pool and
// progress machinery, CLI plumbing under cmd/, the runnable examples,
// and the lint tooling itself. Everything else in the module, and the
// campaign specs under internal/sweep/campaigns, is trial-unit code bound
// by the determinism contract: with the same seed it must produce
// byte-identical artifacts at any -j, under shuffled trial order, and from
// warm or cold caches.
var opsPrefixes = []string{
	"mkos/internal/sweep",
	"mkos/internal/lint",
	"mkos/internal/simd",           // service plumbing: queues, latency histograms, drains
	"mkos/internal/fault/chaos",    // chaos injectors exist to perturb real time
	"mkos/internal/telemetry/ops",  // the wall-clock flight recorder itself
	"mkos/internal/shard/shardops", // barrier waits and window pacing are host observations; internal/shard itself stays bound
	"mkos/cmd",
	"mkos/examples",
}

// isOpsPackage reports whether path may touch wall-clock and process-
// wide operational state.
func isOpsPackage(path string) bool {
	if under(path, "mkos/internal/sweep/campaigns") {
		return false
	}
	for _, p := range opsPrefixes {
		if under(path, p) {
			return true
		}
	}
	return false
}

// under reports whether path is prefix or one of its subpackages.
func under(path, prefix string) bool {
	return path == prefix || strings.HasPrefix(path, prefix+"/")
}

// calleeObj resolves a call's callee to its types.Object: the function,
// method or builtin being invoked. Returns nil for indirect calls
// through non-ident expressions (closure results, map lookups).
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		return info.Uses[fn.Sel]
	}
	return nil
}

// objPkgPath returns the import path of the package defining obj, or ""
// for builtins and nil objects.
func objPkgPath(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// fromPath reports whether pkgPath equals suffix or ends with
// "/"+suffix — the suffix form lets analyzer corpora exercise the real
// simulator packages under fake corpus import paths.
func fromPath(pkgPath, suffix string) bool {
	return pkgPath == suffix || strings.HasSuffix(pkgPath, "/"+suffix)
}

// fromPkg reports whether obj is defined in a package whose import path
// matches suffix (see fromPath).
func fromPkg(obj types.Object, suffix string) bool {
	return fromPath(objPkgPath(obj), suffix)
}

// isMethod reports whether obj is a method (has a receiver).
func isMethod(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// declaredOutside reports whether the identifier's object is declared
// outside the [from, to] node range — i.e. the loop body writes to state
// that survives the loop.
func declaredOutside(info *types.Info, id *ast.Ident, body ast.Node) bool {
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	if obj == nil {
		return false
	}
	return obj.Pos() < body.Pos() || obj.Pos() > body.End()
}

// isFloat reports whether t's underlying type is a floating-point kind.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isString reports whether t's underlying type is a string kind.
func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
