package checks

import (
	"go/ast"
	"go/types"
	"strings"

	"mkos/internal/lint/analysis"
)

// Opstaint tracks wall-clock values through the call graph and flags the
// point where one reaches the simulation.
//
// The Forbidden table polices direct calls and imports: a deterministic
// package may not read the host clock or touch the flight recorder. What
// it cannot see is laundering — an ops-side helper that returns
// time.Since(start), stored in a config struct, handed to a trial unit,
// and finally passed to Engine.Schedule. The byte-identity gates catch
// that only when two runs happen to diverge; opstaint catches it at the
// offending argument. Taint is real dataflow, not an import check:
//
//   - sources: time.Now / Since / Until, anything returned by the
//     internal/telemetry/ops flight recorder, and any function carrying
//     an exported taint fact;
//   - propagation: through assignments, arithmetic, conversions, field
//     and method selections on tainted values, composite literals — and
//     across package boundaries via object facts exported for every
//     function whose results are clock-derived (ops packages export
//     facts too: they may read the clock, but what they return is still
//     tainted for their importers);
//   - sinks: arguments to sim.Engine.Schedule / ScheduleAt / Every,
//     conversions to sim.Time, and arguments to the deterministic
//     telemetry sinks (internal/telemetry, not its ops sibling).
//
// A sink is a finding in every package, ops-side included: the ops
// allowlist licenses *observing* the host, never feeding the host clock
// back into simulated time or the deterministic artifact stream.
var Opstaint = &analysis.Analyzer{
	Name: "opstaint",
	Doc: "wall-clock/ops-derived values must not flow into sim.Engine.Schedule arguments, " +
		"sim.Time conversions, or deterministic telemetry, in any package",
	Run: runOpstaint,
}

// taintedFact marks a function whose results derive from the host clock.
// Exported as an object fact so importing packages see through the call.
type taintedFact struct{}

func (*taintedFact) AFact() {}

func runOpstaint(pass *analysis.Pass) error {
	op := &opstaintPass{pass: pass, tainted: map[types.Object]bool{}}
	var decls []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				decls = append(decls, fd)
			}
		}
	}
	// Fixpoint over the package's functions: marking one function tainted
	// can make its intra-package callers tainted, so iterate to closure
	// before exporting facts and checking sinks.
	for changed := true; changed; {
		changed = false
		for _, fd := range decls {
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok || op.tainted[fn] {
				continue
			}
			if op.returnsTainted(fd) {
				op.tainted[fn] = true
				pass.ExportObjectFact(fn, &taintedFact{})
				changed = true
			}
		}
	}
	for _, fd := range decls {
		op.checkSinks(fd)
	}
	return nil
}

type opstaintPass struct {
	pass    *analysis.Pass
	tainted map[types.Object]bool // this package's clock-derived functions
}

// localTaint computes the set of local objects holding clock-derived
// values in fd, iterating the assignment transfer function to a fixpoint
// (loops can carry taint backwards through the text).
func (op *opstaintPass) localTaint(fd *ast.FuncDecl) map[types.Object]bool {
	local := map[types.Object]bool{}
	mark := func(id *ast.Ident) bool {
		obj := op.pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = op.pass.TypesInfo.Uses[id]
		}
		if obj == nil || local[obj] {
			return false
		}
		local[obj] = true
		return true
	}
	for i := 0; i < 8; i++ {
		changed := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i, rhs := range n.Rhs {
						if !op.taintedExpr(rhs, local) {
							continue
						}
						if id, ok := n.Lhs[i].(*ast.Ident); ok && mark(id) {
							changed = true
						}
					}
					return true
				}
				// Tuple assignment from one multi-value source: any taint
				// contaminates every target.
				for _, rhs := range n.Rhs {
					if !op.taintedExpr(rhs, local) {
						continue
					}
					for _, lhs := range n.Lhs {
						if id, ok := lhs.(*ast.Ident); ok && mark(id) {
							changed = true
						}
					}
				}
			case *ast.ValueSpec:
				for _, v := range n.Values {
					if !op.taintedExpr(v, local) {
						continue
					}
					for _, id := range n.Names {
						if mark(id) {
							changed = true
						}
					}
				}
			case *ast.RangeStmt:
				if op.taintedExpr(n.X, local) {
					for _, e := range []ast.Expr{n.Key, n.Value} {
						if id, ok := e.(*ast.Ident); ok && e != nil && mark(id) {
							changed = true
						}
					}
				}
			}
			return true
		})
		if !changed {
			break
		}
	}
	return local
}

// taintedExpr reports whether e evaluates to a clock-derived value given
// the local taint set.
func (op *opstaintPass) taintedExpr(e ast.Expr, local map[types.Object]bool) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := op.pass.TypesInfo.Uses[e]
		if obj == nil {
			obj = op.pass.TypesInfo.Defs[e]
		}
		return obj != nil && local[obj]
	case *ast.CallExpr:
		// Conversion T(x): taint passes straight through.
		if tv, ok := op.pass.TypesInfo.Types[e.Fun]; ok && tv.IsType() {
			return len(e.Args) == 1 && op.taintedExpr(e.Args[0], local)
		}
		obj := calleeObj(op.pass.TypesInfo, e)
		if obj != nil {
			if objPkgPath(obj) == "time" &&
				(obj.Name() == "Now" || obj.Name() == "Since" || obj.Name() == "Until") {
				return true
			}
			// Everything the flight recorder hands out is a host
			// observation.
			if under(objPkgPath(obj), "mkos/internal/telemetry/ops") {
				return true
			}
			if op.tainted[obj] {
				return true
			}
			var fact taintedFact
			if op.pass.ImportObjectFact(obj, &fact) {
				return true
			}
		}
		// A method call on a tainted value stays tainted (t0.Sub(u),
		// t0.UnixNano()).
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
			return op.taintedExpr(sel.X, local)
		}
		return false
	case *ast.SelectorExpr:
		return op.taintedExpr(e.X, local)
	case *ast.BinaryExpr:
		return op.taintedExpr(e.X, local) || op.taintedExpr(e.Y, local)
	case *ast.UnaryExpr:
		return op.taintedExpr(e.X, local)
	case *ast.StarExpr:
		return op.taintedExpr(e.X, local)
	case *ast.IndexExpr:
		return op.taintedExpr(e.X, local)
	case *ast.TypeAssertExpr:
		return op.taintedExpr(e.X, local)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if op.taintedExpr(el, local) {
				return true
			}
		}
	}
	return false
}

// returnsTainted reports whether any of fd's return values is
// clock-derived: an explicit tainted return expression, or a named
// result that the local taint set marks.
func (op *opstaintPass) returnsTainted(fd *ast.FuncDecl) bool {
	if fd.Type.Results == nil || len(fd.Type.Results.List) == 0 {
		return false
	}
	local := op.localTaint(fd)
	for _, res := range fd.Type.Results.List {
		for _, name := range res.Names {
			if obj := op.pass.TypesInfo.Defs[name]; obj != nil && local[obj] {
				return true
			}
		}
	}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, r := range ret.Results {
			if op.taintedExpr(r, local) {
				found = true
			}
		}
		return true
	})
	return found
}

// checkSinks reports every clock-derived value reaching a sink in fd.
func (op *opstaintPass) checkSinks(fd *ast.FuncDecl) {
	local := op.localTaint(fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Conversion to sim.Time manufactures simulated time from a host
		// value.
		if tv, ok := op.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
			if isSimTime(tv.Type) && len(call.Args) == 1 && op.taintedExpr(call.Args[0], local) {
				op.pass.Reportf(call.Args[0].Pos(),
					"wall-clock-derived value converted to sim.Time: simulated time is defined "+
						"by the event loop, never by the host clock")
			}
			return true
		}
		obj := calleeObj(op.pass.TypesInfo, call)
		if obj == nil {
			return true
		}
		switch {
		case fromPkg(obj, "internal/sim") && isMethod(obj) &&
			(obj.Name() == "Schedule" || obj.Name() == "ScheduleAt" || obj.Name() == "Every"):
			for _, arg := range call.Args {
				if op.taintedExpr(arg, local) {
					op.pass.Reportf(arg.Pos(),
						"wall-clock-derived value flows into sim.Engine.%s: event timing must "+
							"derive from simulated time and seeded randomness only",
						obj.Name())
				}
			}
		case fromPkg(obj, "internal/telemetry") && op.deterministicSink(call, obj):
			// The deterministic sinks; the ops flight recorder lives at
			// internal/telemetry/ops and does not match this suffix, and
			// metric handles held in fields point at private ops
			// registries, which may hold host observations.
			for _, arg := range call.Args {
				if op.taintedExpr(arg, local) {
					op.pass.Reportf(arg.Pos(),
						"wall-clock-derived value recorded in deterministic telemetry via %s: "+
							"host observations belong in the ops flight recorder "+
							"(internal/telemetry/ops)",
						obj.Name())
				}
			}
		}
		return true
	})
}

// deterministicSink reports whether call publishes into a deterministic
// telemetry.Sink. Package-level telemetry functions and the Sink's own
// methods (Counter, Span, Instant, ...) always do; any other method — a
// metric's Observe, Set or Add — does only when its receiver chain
// originates in a Sink method call — sink.Gauge("x").Set(v) — because a
// handle held in a field typically points at a private ops registry
// (simd's submit latency, shardops' barrier waits), where host
// observations are the point.
func (op *opstaintPass) deterministicSink(call *ast.CallExpr, obj types.Object) bool {
	if !isMethod(obj) || isSinkMethod(obj) {
		return true
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	for e := ast.Unparen(sel.X); ; {
		switch x := e.(type) {
		case *ast.CallExpr:
			if o := calleeObj(op.pass.TypesInfo, x); o != nil && isSinkMethod(o) {
				return true
			}
			e = ast.Unparen(x.Fun)
		case *ast.SelectorExpr:
			e = ast.Unparen(x.X)
		case *ast.IndexExpr:
			e = ast.Unparen(x.X)
		default:
			return false
		}
	}
}

// isSinkMethod reports whether obj is a method of telemetry.Sink.
func isSinkMethod(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && strings.HasSuffix(types.TypeString(recv.Type(), nil), "/internal/telemetry.Sink")
}

// isSimTime reports whether t is the sim package's Time type.
func isSimTime(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Time" && obj.Pkg() != nil && fromPath(obj.Pkg().Path(), "internal/sim")
}
