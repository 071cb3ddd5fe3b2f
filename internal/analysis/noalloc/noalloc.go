// Package noalloc checks that functions annotated //mdes:noalloc contain no
// allocating constructs.
//
// The repo's hot paths (LSTM/attention StepWS and StepBackwardWS, Stream.Push)
// are benchmarked at 0 allocs/op; this analyzer turns that property from an
// AllocsPerRun pin — which only fires for the exact benchmark input — into a
// structural guarantee over the whole function body. Flagged constructs:
//
//   - make and new
//   - composite literals of slice or map type, and &T{...} literals whose
//     address may escape
//   - append without pre-allocated-capacity evidence (the destination must be
//     a reslice like buf[:0], either inline or assigned earlier in the
//     function)
//   - string concatenation and string<->[]byte/[]rune conversions
//   - calls into fmt
//   - interface boxing at call sites (passing a concrete value to an
//     interface-typed parameter)
//   - function literals that capture enclosing variables
//
// Cold branches (nil-workspace fallbacks, error paths) are waived in place
// with //mdes:allow(noalloc) comments.
package noalloc

import (
	"go/ast"
	"go/types"

	"mdes/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "noalloc",
	Doc:  "reports allocating constructs inside functions annotated //mdes:noalloc",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, fn := range pass.Funcs {
		if analysis.HasDoc(fn.Decl.Doc, "mdes:noalloc") {
			checkFunc(pass, fn.Decl)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	resliced := reslicedVars(pass, fd.Body)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, name, n, resliced)
		case *ast.CompositeLit:
			switch pass.TypeOf(n).Underlying().(type) {
			case *types.Slice:
				pass.Reportf(n.Pos(), "slice literal allocates in noalloc function %s", name)
			case *types.Map:
				pass.Reportf(n.Pos(), "map literal allocates in noalloc function %s", name)
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "&" {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "&composite literal may escape to the heap in noalloc function %s", name)
				}
			}
		case *ast.BinaryExpr:
			if n.Op.String() == "+" && isNonConstString(pass, n) {
				pass.Reportf(n.Pos(), "string concatenation allocates in noalloc function %s", name)
			}
		case *ast.FuncLit:
			if captures(pass, fd, n) {
				pass.Reportf(n.Pos(), "closure captures enclosing variables and allocates in noalloc function %s", name)
			}
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, name string, call *ast.CallExpr, resliced map[types.Object]bool) {
	info := pass.TypesInfo
	switch {
	case analysis.IsBuiltinCall(info, call, "make"):
		pass.Reportf(call.Pos(), "make allocates in noalloc function %s", name)
		return
	case analysis.IsBuiltinCall(info, call, "new"):
		pass.Reportf(call.Pos(), "new allocates in noalloc function %s", name)
		return
	case analysis.IsBuiltinCall(info, call, "append"):
		if !hasCapEvidence(info, call.Args[0], resliced) {
			pass.Reportf(call.Pos(), "append without preallocated-cap evidence in noalloc function %s (reslice the destination, e.g. buf[:0])", name)
		}
		return
	}

	if conv, ok := allocatingConversion(pass, call); ok {
		pass.Reportf(call.Pos(), "%s conversion allocates in noalloc function %s", conv, name)
		return
	}

	if fn := analysis.CalleeFunc(info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		pass.Reportf(call.Pos(), "call to fmt.%s allocates in noalloc function %s", fn.Name(), name)
	}

	checkBoxing(pass, name, call)
}

// hasCapEvidence reports whether the append destination is visibly resliced
// from pre-allocated storage: either an inline slice expression (buf[:0]) or
// a variable assigned from one earlier in the function.
func hasCapEvidence(info *types.Info, dst ast.Expr, resliced map[types.Object]bool) bool {
	switch dst := ast.Unparen(dst).(type) {
	case *ast.SliceExpr:
		return true
	case *ast.Ident:
		if obj := info.Uses[dst]; obj != nil {
			return resliced[obj]
		}
	}
	return false
}

// reslicedVars collects variables assigned (anywhere in the body) from a
// slice expression — `buf := s.scratch[:0]` marks buf as capacity-evidenced.
func reslicedVars(pass *analysis.Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			if _, ok := ast.Unparen(rhs).(*ast.SliceExpr); !ok {
				continue
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				out[obj] = true
			} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

func isNonConstString(pass *analysis.Pass, e *ast.BinaryExpr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value != nil { // constant-folded concatenation is free
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

// allocatingConversion detects string([]byte), []byte(string), string([]rune)
// and []rune(string) conversions.
func allocatingConversion(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return "", false
	}
	to := tv.Type.Underlying()
	from := pass.TypeOf(call.Args[0])
	if from == nil {
		return "", false
	}
	fromU := from.Underlying()
	if isString(to) && (isByteOrRuneSlice(fromU) != "") {
		return isByteOrRuneSlice(fromU) + "->string", true
	}
	if s := isByteOrRuneSlice(to); s != "" && isString(fromU) {
		return "string->" + s, true
	}
	return "", false
}

func isString(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) string {
	s, ok := t.(*types.Slice)
	if !ok {
		return ""
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	if !ok {
		return ""
	}
	switch b.Kind() {
	case types.Uint8: // byte
		return "[]byte"
	case types.Int32: // rune
		return "[]rune"
	}
	return ""
}

// checkBoxing flags arguments whose static type is concrete passed to
// interface-typed parameters.
func checkBoxing(pass *analysis.Pass, name string, call *ast.CallExpr) {
	sigT := pass.TypeOf(call.Fun)
	if sigT == nil {
		return
	}
	sig, ok := sigT.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		if sig.Variadic() && i >= params.Len()-1 {
			last := params.At(params.Len() - 1).Type()
			if s, ok := last.(*types.Slice); ok {
				pt = s.Elem()
			}
		} else if i < params.Len() {
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := pass.TypeOf(arg)
		if at == nil {
			continue
		}
		if b, ok := at.(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		if _, argIface := at.Underlying().(*types.Interface); argIface {
			continue
		}
		pass.Reportf(arg.Pos(), "interface boxing: %s passed to interface-typed parameter in noalloc function %s", at.String(), name)
	}
}

// captures reports whether lit references any object declared in fd but
// outside lit — a capturing closure, which allocates its environment.
func captures(pass *analysis.Pass, fd *ast.FuncDecl, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			return true
		}
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		pos := v.Pos()
		if pos >= fd.Pos() && pos < lit.Pos() {
			found = true
			return false
		}
		return true
	})
	return found
}
