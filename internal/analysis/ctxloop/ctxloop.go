// Package ctxloop checks that exported training and scoring entry points are
// cancellable.
//
// Two rules, both intraprocedural:
//
//  1. An exported function named Train*/Score* (prefix followed by an
//     uppercase letter or end of name) that contains at least one loop must
//     accept a context.Context parameter. Loop-free helpers (e.g. a pairwise
//     Score lookup) and single-statement delegation wrappers (Train calling
//     TrainContext with context.Background()) are exempt — the wrapper form
//     is the repo's documented pattern for keeping the old API.
//
//  2. Inside any checked function that does take a context, every unbounded
//     loop — `for {}`, `for cond {}`, or `range` over a channel — must
//     consult the context in its body: call ctx.Err(), receive from
//     ctx.Done(), or pass ctx on to a callee that does.
//
// Bounded loops (three-clause for, range over slices/maps) are assumed to
// terminate; long-running bounded training loops use stride-based ctx checks
// which rule 2 accepts wherever they appear in the body.
package ctxloop

import (
	"go/ast"
	"go/types"
	"strings"
	"unicode"
	"unicode/utf8"

	"mdes/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "ctxloop",
	Doc:  "reports exported Train*/Score* functions that are not cancellable via context.Context",
	Run:  run,
}

// prefixes of exported API names that must be cancellable.
var prefixes = []string{"Train", "Score"}

func run(pass *analysis.Pass) error {
	for _, fn := range pass.Funcs {
		if matchesPrefix(fn.Decl.Name.Name) {
			checkFunc(pass, fn.Decl)
		}
	}
	return nil
}

// matchesPrefix reports whether name is exported and starts with one of the
// guarded prefixes at a word boundary, so Trainer or Scores do not match.
func matchesPrefix(name string) bool {
	for _, p := range prefixes {
		if !strings.HasPrefix(name, p) {
			continue
		}
		rest := name[len(p):]
		if rest == "" {
			return true
		}
		r, _ := utf8.DecodeRuneInString(rest)
		if unicode.IsUpper(r) || unicode.IsDigit(r) {
			return true
		}
	}
	return false
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	ctxObj := contextParam(pass, fd)
	if ctxObj == nil {
		if hasLoop(fd.Body) && !isDelegationWrapper(fd) {
			pass.Reportf(fd.Name.Pos(), "exported %s contains loops but has no context.Context parameter; it cannot be cancelled", fd.Name.Name)
		}
		return
	}
	// Rule 2: every unbounded loop must consult the context.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			if n.Init == nil && n.Post == nil && !consultsCtx(pass, ctxObj, n.Body) {
				pass.Reportf(n.Pos(), "unbounded loop in %s never checks %s.Err() or %s.Done()", fd.Name.Name, ctxObj.Name(), ctxObj.Name())
			}
		case *ast.RangeStmt:
			if isChannel(pass.TypeOf(n.X)) && !consultsCtx(pass, ctxObj, n.Body) {
				pass.Reportf(n.Pos(), "range over channel in %s never checks %s.Err() or %s.Done()", fd.Name.Name, ctxObj.Name(), ctxObj.Name())
			}
		}
		return true
	})
}

// contextParam returns the context.Context parameter object, if any.
func contextParam(pass *analysis.Pass, fd *ast.FuncDecl) types.Object {
	for _, field := range fd.Type.Params.List {
		t := pass.TypeOf(field.Type)
		if t == nil || !analysis.IsContextType(t) {
			continue
		}
		if len(field.Names) > 0 {
			if obj := pass.TypesInfo.Defs[field.Names[0]]; obj != nil {
				return obj
			}
		}
	}
	return nil
}

func hasLoop(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			found = true
		}
		return !found
	})
	return found
}

// isDelegationWrapper reports whether the body is a single return or
// expression statement calling another function — the Train -> TrainContext
// compatibility-wrapper shape.
func isDelegationWrapper(fd *ast.FuncDecl) bool {
	if len(fd.Body.List) != 1 {
		return false
	}
	switch s := fd.Body.List[0].(type) {
	case *ast.ReturnStmt:
		return len(s.Results) >= 1 && isCall(s.Results[0])
	case *ast.ExprStmt:
		return isCall(s.X)
	}
	return false
}

func isCall(e ast.Expr) bool {
	_, ok := ast.Unparen(e).(*ast.CallExpr)
	return ok
}

// consultsCtx reports whether body mentions the context: ctx.Err()/ctx.Done()
// calls, or ctx forwarded as a call argument.
func consultsCtx(pass *analysis.Pass, ctxObj types.Object, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok &&
				pass.TypesInfo.Uses[id] == ctxObj &&
				(sel.Sel.Name == "Err" || sel.Sel.Name == "Done") {
				found = true
				return false
			}
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == ctxObj {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func isChannel(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}
