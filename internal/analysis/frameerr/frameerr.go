// Package frameerr checks that durability-relevant results are not silently
// dropped.
//
// The checkpoint journal and session snapshots only deliver their crash-safety
// guarantees if the final Close/Flush/Sync error is observed (that is where
// delayed write errors surface) and if the slice returned by
// checkpoint.AppendFrame is kept (the function returns the extended buffer;
// discarding it discards the frame). The analyzer flags, in all non-test
// files:
//
//   - expression statements calling a method named Close, Flush, or Sync
//     that returns an error, with the error discarded
//   - expression statements calling checkpoint.AppendFrame, whose []byte
//     result is the appended journal
//
// An explicit `_ = f.Close()` is the sanctioned way to say "best effort, and
// I mean it" on read-only paths, and `defer f.Close()` is exempt because Go
// offers no way to check a deferred error without a named-result wrapper —
// write paths must Close explicitly before reporting success.
package frameerr

import (
	"go/ast"
	"go/types"

	"mdes/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "frameerr",
	Doc:  "reports discarded Close/Flush/Sync errors and discarded checkpoint.AppendFrame results",
	Run:  run,
}

var methodNames = map[string]bool{"Close": true, "Flush": true, "Sync": true}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Source {
		ast.Inspect(f, func(n ast.Node) bool {
			es, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := ast.Unparen(es.X).(*ast.CallExpr)
			if !ok {
				return true
			}
			checkCall(pass, call)
			return true
		})
	}
	return nil
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	if fn.Name() == "AppendFrame" && fn.Pkg() != nil &&
		analysis.PkgPathMatches(fn.Pkg().Path(), []string{"internal/checkpoint", "checkpoint"}) {
		pass.Reportf(call.Pos(), "result of %s.AppendFrame is discarded: the returned slice is the journal with the frame appended", fn.Pkg().Name())
		return
	}
	if !methodNames[fn.Name()] {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || !returnsError(sig) {
		return
	}
	pass.Reportf(call.Pos(), "error from %s is discarded; check it or assign to _ explicitly", fn.Name())
}

func returnsError(sig *types.Signature) bool {
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	last := res.At(res.Len() - 1).Type()
	return types.Identical(last, types.Universe.Lookup("error").Type())
}
