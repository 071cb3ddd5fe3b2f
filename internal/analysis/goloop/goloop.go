// Package goloop guards goroutine hygiene in non-test code: every `go`
// statement must have a bounded lifecycle, and timers/tickers created inside
// a function must be stopped on every exit path.
//
// A goroutine counts as bounded when the analyzer can see lifecycle evidence:
//
//   - a context.Context flows into the spawned call as an argument, or the
//     body (transitively through same-package callees) selects on ctx.Done()
//     or checks ctx.Err();
//   - the body signals a sync.WaitGroup (Done/Wait);
//   - the body performs any channel operation — receive, send, select, range,
//     or close. A goroutine parked on a channel is under the spawner's
//     control: closing or draining the channel releases it.
//
// Anything else — most commonly `go f()` where f loops forever on its own —
// is flagged. Deliberately unbounded goroutines (process-lifetime loops)
// carry //mdes:allow(goloop) waivers naming the shutdown story instead.
//
// The timer rule is separate and applies to every function, not only
// goroutine bodies: a `t := time.NewTimer(...)` / `time.NewTicker(...)` whose
// handle stays local to the function must have a `defer t.Stop()` in that
// same function, otherwise an early return leaves the timer armed (and a
// ticker leaks its goroutine permanently). Handles that escape — returned,
// stored in a struct, passed to another function — are the owner's problem
// and are skipped.
package goloop

import (
	"go/ast"
	"go/token"
	"go/types"

	"mdes/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "goloop",
	Doc:  "reports goroutines without a bounded lifecycle and timers/tickers without a deferred Stop",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	bounded := analysis.Summarize(pass, func(fn *analysis.Func, fact func(bool), call func(*ast.CallExpr)) {
		// A context parameter is evidence by itself: the callee can only
		// have received it from the spawner.
		params := fn.Obj.Type().(*types.Signature).Params()
		for i := 0; i < params.Len(); i++ {
			if analysis.IsContextType(params.At(i).Type()) {
				fact(true)
			}
		}
		evidence(pass, fn.Decl.Body, fact, call)
	})
	for _, f := range pass.Source {
		ast.Inspect(f, func(n ast.Node) bool {
			if gs, ok := n.(*ast.GoStmt); ok {
				checkGo(pass, bounded, gs)
			}
			return true
		})
	}
	// A defer in a function literal does not run when the enclosing
	// function returns, and vice versa: each body is its own timer scope.
	for _, fn := range pass.Funcs {
		for _, body := range fn.Bodies() {
			checkTimerScope(pass, body)
		}
	}
	return nil
}

// checkGo reports the go statement unless lifecycle evidence is visible.
func checkGo(pass *analysis.Pass, bounded map[*types.Func]map[bool]bool, gs *ast.GoStmt) {
	call := gs.Call
	// A context argument is evidence regardless of what the callee is.
	for _, arg := range call.Args {
		if t := pass.TypeOf(arg); t != nil && analysis.IsContextType(t) {
			return
		}
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		found := false
		evidence(pass, fun.Body, func(bool) { found = true }, func(c *ast.CallExpr) {
			found = found || bounded[analysis.CalleeFunc(pass.TypesInfo, c)][true]
		})
		if found {
			return
		}
	default:
		if fn := analysis.CalleeFunc(pass.TypesInfo, call); fn != nil {
			if bounded[fn][true] {
				return
			}
			// Method values on other packages' types (e.g. wg.Wait,
			// srv.Shutdown) whose receiver is lifecycle machinery.
			if isLifecycleCall(pass, call) {
				return
			}
		}
	}
	pass.Reportf(gs.Pos(), "goroutine has no visible bounded lifecycle: tie it to a context, a sync.WaitGroup, or a channel the spawner controls")
}

// evidence walks body, nested function literals included, passing direct
// lifecycle evidence to fact and every call to call, which decides whether
// the callee's own evidence counts.
func evidence(pass *analysis.Pass, body ast.Node, fact func(bool), call func(*ast.CallExpr)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				fact(true)
			}
		case *ast.SendStmt, *ast.SelectStmt:
			fact(true)
		case *ast.RangeStmt:
			if t := pass.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					fact(true)
				}
			}
		case *ast.CallExpr:
			if analysis.IsBuiltinCall(pass.TypesInfo, n, "close") || isLifecycleCall(pass, n) {
				fact(true)
			}
			for _, arg := range n.Args {
				if t := pass.TypeOf(arg); t != nil && analysis.IsContextType(t) {
					fact(true)
				}
			}
			call(n)
		}
		return true
	})
}

// isLifecycleCall reports whether call is a method call that by itself proves
// lifecycle coupling: WaitGroup.Done/Wait, or Err/Done/Deadline on a context.
func isLifecycleCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return false
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "sync" && (fn.Name() == "Done" || fn.Name() == "Wait") {
		return true
	}
	if t := pass.TypeOf(sel.X); t != nil && analysis.IsContextType(t) {
		switch fn.Name() {
		case "Done", "Err", "Deadline":
			return true
		}
	}
	return false
}

// inspectScope walks the nodes that belong to scope itself, not to nested
// function literals.
func inspectScope(scope *ast.BlockStmt, visit func(ast.Node) bool) {
	ast.Inspect(scope, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit.Body != scope {
			return false
		}
		return visit(n)
	})
}

func checkTimerScope(pass *analysis.Pass, scope *ast.BlockStmt) {
	// Collect `v := time.NewTimer(...)` / `time.NewTicker(...)` locals.
	type timer struct {
		obj  types.Object
		kind string
		pos  ast.Node
	}
	var timers []timer
	inspectScope(scope, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeFunc(pass.TypesInfo, call)
		if fn == nil || !analysis.FuncInPkg(fn, "time") {
			return true
		}
		if fn.Name() != "NewTimer" && fn.Name() != "NewTicker" {
			return true
		}
		obj := pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = pass.TypesInfo.Uses[id]
		}
		if obj == nil {
			return true
		}
		timers = append(timers, timer{obj: obj, kind: fn.Name(), pos: as})
		return true
	})
	if len(timers) == 0 {
		return
	}
	usesObj := func(e ast.Expr, obj types.Object) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && (pass.TypesInfo.Uses[id] == obj || pass.TypesInfo.Defs[id] == obj) {
				found = true
			}
			return !found
		})
		return found
	}
	for _, t := range timers {
		stopped, escapes := false, false
		inspectScope(scope, func(n ast.Node) bool {
			if stopped || escapes {
				return false
			}
			switch n := n.(type) {
			case *ast.DeferStmt:
				// defer t.Stop()
				if sel, ok := ast.Unparen(n.Call.Fun).(*ast.SelectorExpr); ok &&
					sel.Sel.Name == "Stop" && usesObj(sel.X, t.obj) {
					stopped = true
					return false
				}
				// The handle may also be captured by a deferred cleanup
				// closure; treat that as an escape (the closure owns it).
				if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
					for _, stmt := range lit.Body.List {
						if es, ok := stmt.(*ast.ExprStmt); ok {
							if c, ok := ast.Unparen(es.X).(*ast.CallExpr); ok {
								if sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr); ok &&
									sel.Sel.Name == "Stop" && usesObj(sel.X, t.obj) {
									stopped = true
									return false
								}
							}
						}
					}
				}
			case *ast.ReturnStmt:
				for _, r := range n.Results {
					if usesObj(r, t.obj) {
						escapes = true
						return false
					}
				}
			case *ast.CallExpr:
				// Passed as an argument (not a method call on the handle
				// itself): ownership moves.
				for _, arg := range n.Args {
					if usesObj(arg, t.obj) {
						escapes = true
						return false
					}
				}
			case *ast.AssignStmt:
				// Re-assigned into a field, map, or another variable:
				// ownership moves.
				for i, rhs := range n.Rhs {
					if ident, ok := rhs.(*ast.Ident); ok && (pass.TypesInfo.Uses[ident] == t.obj) {
						_ = i
						escapes = true
						return false
					}
				}
			case *ast.SendStmt:
				if usesObj(n.Value, t.obj) {
					escapes = true
					return false
				}
			case *ast.CompositeLit:
				for _, el := range n.Elts {
					if usesObj(el, t.obj) {
						escapes = true
						return false
					}
				}
			}
			return true
		})
		if !stopped && !escapes {
			pass.Reportf(t.pos.Pos(), "time.%s is not stopped on every exit path: defer its Stop right after creation (or hand the handle off explicitly)", t.kind)
		}
	}
}
