// Package detrand guards the reproduction's determinism claim: at a fixed
// seed, training and scoring must be bit-identical run to run, or the learned
// BLEU thresholds (and therefore every anomaly verdict) drift.
//
// Within the configured scoring/training packages, non-test files must not:
//
//   - call math/rand (or math/rand/v2) package-level functions, which draw
//     from the global, process-wide source — use an explicitly seeded
//     *rand.Rand;
//   - call time.Now or time.Since, which leak wall-clock into results
//     (progress reporting may waive specific lines);
//   - iterate a map while accumulating into a floating-point variable
//     declared outside the loop (float addition is not associative, so the
//     random iteration order changes the sum), or while appending to an
//     outer slice that is not sorted afterwards in the same function — the
//     exact bug class once fixed in trainTracker.snapshot.
package detrand

import (
	"go/ast"
	"go/types"
	"strings"

	"mdes/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "detrand",
	Doc:  "reports sources of nondeterminism (global rand, wall-clock, map-order dependence) in scoring/training packages",
	Run:  run,
}

// Packages are the import-path suffixes the analyzer applies to (matched with
// analysis.PkgPathMatches). The mdes module path itself selects the root
// package.
var Packages = []string{
	"mdes",
	"internal/nmt",
	"internal/nn",
	"internal/mat",
	"internal/infer",
	"internal/bleu",
	"internal/anomaly",
	"internal/pairmine",
	"internal/cluster",
	"internal/graph",
	"internal/community",
	"internal/stats",
	"internal/baseline/ocsvm",
	"internal/baseline/forest",
}

func run(pass *analysis.Pass) error {
	if !analysis.PkgPathMatches(pass.Pkg.Path(), Packages) {
		return nil
	}
	for _, f := range pass.Source {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, f, n)
			}
			return true
		})
	}
	return nil
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	path := fn.Pkg().Path()
	sig, _ := fn.Type().(*types.Signature)
	switch path {
	case "math/rand", "math/rand/v2":
		// Methods on *rand.Rand are fine, and so are the New*/constructor
		// functions (they build explicitly seeded generators); the remaining
		// package-level functions draw from the shared global source.
		if sig != nil && sig.Recv() == nil && !strings.HasPrefix(fn.Name(), "New") {
			pass.Reportf(call.Pos(), "global rand.%s draws from the process-wide source; use an explicitly seeded *rand.Rand", fn.Name())
		}
	case "time":
		if fn.Name() == "Now" || fn.Name() == "Since" {
			pass.Reportf(call.Pos(), "time.%s in scoring/training code makes results depend on wall-clock", fn.Name())
		}
	}
}

// checkMapRange flags order-dependent reductions over map iteration.
func checkMapRange(pass *analysis.Pass, file *ast.File, rng *ast.RangeStmt) {
	t := pass.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			switch n.Tok.String() {
			case "+=", "-=", "*=", "/=":
				for _, lhs := range n.Lhs {
					if obj := outerVar(pass, lhs, rng); obj != nil && isFloat(obj.Type()) {
						pass.Reportf(n.Pos(), "map iteration accumulates into float %s; iteration order is random, so the sum is not reproducible", obj.Name())
					}
				}
			}
		case *ast.CallExpr:
			if analysis.IsBuiltinCall(pass.TypesInfo, n, "append") {
				if obj := outerVar(pass, n.Args[0], rng); obj != nil && !sortedAfter(pass, file, obj, rng) {
					pass.Reportf(n.Pos(), "map iteration appends to %s in random order and %s is not sorted afterwards", obj.Name(), obj.Name())
				}
			}
		}
		return true
	})
}

// outerVar resolves e to a variable declared outside the range statement, or
// nil. Per-iteration locals are order-safe.
func outerVar(pass *analysis.Pass, e ast.Expr, rng *ast.RangeStmt) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	obj, _ := pass.TypesInfo.Uses[id].(*types.Var)
	if obj == nil {
		return nil
	}
	if obj.Pos() >= rng.Pos() && obj.Pos() < rng.End() {
		return nil
	}
	return obj
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// sortedAfter reports whether obj is passed to a sort/slices call after the
// range statement ends, anywhere later in the file — evidence the random
// append order is normalized before use.
func sortedAfter(pass *analysis.Pass, file *ast.File, obj *types.Var, rng *ast.RangeStmt) bool {
	found := false
	ast.Inspect(file, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		fn := analysis.CalleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "sort", "slices":
		default:
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(a ast.Node) bool {
				if id, ok := a.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}
