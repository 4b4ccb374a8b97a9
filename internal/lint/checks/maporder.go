package checks

import (
	"go/ast"
	"go/token"
	"go/types"

	"mkos/internal/lint/analysis"
)

// Maporder flags order-sensitive work performed while ranging over a map.
//
// Go randomizes map iteration order per run, so any fold whose result
// depends on visit order — appending to a slice that is not subsequently
// sorted, building strings, writing output, publishing telemetry, or
// accumulating floating-point sums (float addition is not associative) —
// produces run-to-run differences. This is the analyzer that guards the
// byte-identical results.json/metrics.txt contract: the repo's idiom is
// the sorted-key fold (for _, k := range sortedKeys(m) { ... }), which
// ranges over a slice and is therefore never flagged. The one blessed
// in-map-range pattern is collecting keys (or values) into a slice that
// the same function then sorts — the canonical sortedKeys body itself.
//
// Order-insensitive work inside a map range is fine and not reported:
// integer accumulation, min/max tracking, writes into another map,
// membership tests, deletes.
var Maporder = &analysis.Analyzer{
	Name: "maporder",
	Doc: "flag order-sensitive folds over map iteration (appends, output, telemetry, " +
		"float sums) unless the keys are sorted first",
	Run: runMaporder,
}

func runMaporder(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		// Walk function by function so the sort-after-range exemption can
		// see the statements that follow the loop.
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body == nil {
				return true
			}
			checkMapRanges(pass, body)
			return true
		})
	}
	return nil
}

// checkMapRanges reports order-sensitive statements inside every
// map-range loop directly contained in fnBody (nested function literals
// are handled by their own walk).
func checkMapRanges(pass *analysis.Pass, fnBody *ast.BlockStmt) {
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != ast.Node(fnBody) {
			return false // their ranges get their own enclosing-function walk
		}
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[rs.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRangeBody(pass, fnBody, rs)
		return true
	})
}

func checkMapRangeBody(pass *analysis.Pass, fnBody *ast.BlockStmt, rs *ast.RangeStmt) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			checkAssign(pass, fnBody, rs, st)
		case *ast.CallExpr:
			checkCall(pass, rs, st)
		}
		return true
	})
}

func checkAssign(pass *analysis.Pass, fnBody *ast.BlockStmt, rs *ast.RangeStmt, st *ast.AssignStmt) {
	switch st.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		for _, lhs := range st.Lhs {
			tv, ok := pass.TypesInfo.Types[lhs]
			if !ok || !outsideLoop(pass, lhs, rs) {
				continue
			}
			switch {
			case isFloat(tv.Type):
				pass.Reportf(st.Pos(),
					"floating-point accumulation (%s) while ranging over a map: float addition is "+
						"not associative, so the sum depends on iteration order — fold over sorted "+
						"keys instead (see telemetry sortedKeys idiom)", st.Tok)
			case isString(tv.Type) && st.Tok == token.ADD_ASSIGN:
				pass.Reportf(st.Pos(),
					"string concatenation while ranging over a map builds output in random "+
						"iteration order: range over sorted keys")
			}
		}
	case token.ASSIGN, token.DEFINE:
		// s = append(s, ...) collecting into an outer slice. Blessed when
		// the same function sorts the slice after the loop (the
		// sortedKeys idiom); order-dependent otherwise.
		for i, rhs := range st.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				continue
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" ||
				pass.TypesInfo.Uses[id] != types.Universe.Lookup("append") {
				continue
			}
			if i >= len(st.Lhs) {
				continue
			}
			dst, ok := ast.Unparen(st.Lhs[i]).(*ast.Ident)
			if !ok || !outsideLoop(pass, dst, rs) {
				continue
			}
			if sortedAfter(pass, fnBody, rs, dst) {
				continue
			}
			pass.Reportf(st.Pos(),
				"append to %s while ranging over a map accumulates in random iteration order: "+
					"sort %s after the loop, or range over sorted keys", dst.Name, dst.Name)
		}
	}
}

// outputMethods are the write methods of strings.Builder and
// bytes.Buffer: calling one inside a map range serializes in iteration
// order.
var outputMethods = map[string]bool{
	"WriteString": true, "WriteByte": true, "WriteRune": true, "Write": true,
}

// telemetryPublish names the telemetry calls that mutate a sink —
// reads like Counter.Value or Registry.Snapshot are order-free and
// legal inside a map range.
var telemetryPublish = map[string]bool{
	"Counter": true, "Gauge": true, "Histogram": true, "Span": true, "Instant": true,
	"Add": true, "Inc": true, "Set": true, "SetMax": true, "Observe": true,
	"MergeFrom": true, "AddSnapshot": true,
}

func checkCall(pass *analysis.Pass, rs *ast.RangeStmt, call *ast.CallExpr) {
	obj := calleeObj(pass.TypesInfo, call)
	if obj == nil {
		return
	}
	switch {
	case objPkgPath(obj) == "fmt" && !isMethod(obj) && obj.Name() != "Sprintf" &&
		obj.Name() != "Errorf" && obj.Name() != "Sprint" && obj.Name() != "Sprintln":
		pass.Reportf(call.Pos(),
			"fmt.%s inside a map range emits output in random iteration order: "+
				"range over sorted keys", obj.Name())
	case isMethod(obj) && outputMethods[obj.Name()] && builderReceiver(pass, call):
		pass.Reportf(call.Pos(),
			"%s on a builder inside a map range serializes in random iteration order: "+
				"range over sorted keys", obj.Name())
	case fromPkg(obj, "internal/telemetry") && telemetryPublish[obj.Name()]:
		pass.Reportf(call.Pos(),
			"telemetry call %s inside a map range publishes in random iteration order; "+
				"histogram sums fold floats in call order — range over sorted keys", obj.Name())
	}
}

// builderReceiver reports whether the method call's receiver is a
// strings.Builder, bytes.Buffer or an io.Writer-bearing type from the
// standard library output packages.
func builderReceiver(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	switch objPkgPath(obj) {
	case "strings", "bytes", "bufio":
		return true
	}
	return false
}

// outsideLoop reports whether expr is an identifier (or selector whose
// base is an identifier) declared outside the range statement — loop-
// local accumulators reset every iteration and cannot leak order.
func outsideLoop(pass *analysis.Pass, expr ast.Expr, rs *ast.RangeStmt) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return declaredOutside(pass.TypesInfo, e, rs)
	case *ast.SelectorExpr:
		if base, ok := ast.Unparen(e.X).(*ast.Ident); ok {
			return declaredOutside(pass.TypesInfo, base, rs)
		}
		return true // conservative: x.y.z += f is almost always outer state
	case *ast.IndexExpr:
		return outsideLoop(pass, e.X, rs)
	}
	return false
}

// sortedAfter reports whether ident (a slice accumulated inside rs) is
// passed to a sort or slices call in fnBody after the range statement —
// the collect-then-sort idiom that makes the fold order-free.
func sortedAfter(pass *analysis.Pass, fnBody *ast.BlockStmt, rs *ast.RangeStmt, dst *ast.Ident) bool {
	obj := pass.TypesInfo.Uses[dst]
	if obj == nil {
		obj = pass.TypesInfo.Defs[dst]
	}
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() || found {
			return !found
		}
		callee := calleeObj(pass.TypesInfo, call)
		switch objPkgPath(callee) {
		case "sort", "slices":
		default:
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
				found = true
			}
		}
		return !found
	})
	return found
}
