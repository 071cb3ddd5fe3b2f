// Package lockcall guards the server's latency and liveness invariants: a
// sync.Mutex/RWMutex in internal/serve protects in-memory session state, and
// one in internal/cluster protects the ownership table; neither must ever
// be held across blocking operations (in cluster in particular, no network
// I/O under the table's lock — a slow peer would stall ownership lookups
// fleet-wide).
//
// Within analysis.LockPackages, wherever analysis.WalkLocks finds a mutex
// held — after a mu.Lock()/mu.RLock() and before the matching Unlock, a
// deferred Unlock holding to function end — the analyzer flags, in
// statements, conditions, switch case expressions, type-switch guards and
// select communications alike:
//
//   - channel sends
//   - calls into I/O packages (os, net, net/http, io, bufio, and
//     mdes/internal/faultfs, whose FS interface carries every session
//     record), directly or through a same-package helper that transitively
//     performs such I/O (analysis.Summarize's call fixpoint)
//   - dynamic invocations of function-typed values (user callbacks)
//
// The walker is lockorder's too. It is syntactic within a function: a
// function literal's body is walked on its own, from an empty hold set,
// locks are not tracked across calls (a lock a callee returns held is
// invisible), and TryLock is ignored. The smallest receiver held names the
// lock in the message. Intentional hold-across-I/O sites — e.g. the drain-time
// persist of every session in Server.Shutdown, where the session lock pins
// the final state — carry //mdes:allow(lockcall) waivers explaining why, and
// mdes-vet reports a waiver that suppresses nothing.
package lockcall

import (
	"go/ast"
	"go/types"

	"mdes/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockcall",
	Doc:  "reports blocking operations (channel sends, I/O, callbacks) performed while a sync mutex is held",
	Run:  run,
}

// ioPkgs are the packages whose calls count as file/network I/O.
var ioPkgs = map[string]bool{
	"os":       true,
	"net":      true,
	"net/http": true,
	"io":       true,
	"bufio":    true,
	// A store read or write through faultfs.FS is file I/O whatever FS
	// sits behind it.
	"mdes/internal/faultfs": true,
}

func run(pass *analysis.Pass) error {
	if !analysis.PkgPathMatches(pass.Pkg.Path(), analysis.LockPackages) {
		return nil
	}
	// A function performs I/O when it calls into an I/O package anywhere in
	// its body, function literals included, or calls one that does.
	ioFuncs := analysis.Summarize(pass, func(fn *analysis.Func, fact func(bool), call func(*ast.CallExpr)) {
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				if callee := analysis.CalleeFunc(pass.TypesInfo, c); callee != nil && callee.Pkg() != nil && ioPkgs[callee.Pkg().Path()] {
					fact(true)
				}
				call(c)
			}
			return true
		})
	})
	for _, fn := range pass.Funcs {
		for _, body := range fn.Bodies() {
			pass.WalkLocks(body, nil, func(n ast.Node, held []analysis.Lock) {
				// Name the smallest receiver held, so the message is stable.
				mu := held[0].Recv
				for _, h := range held[1:] {
					mu = min(mu, h.Recv)
				}
				switch n := n.(type) {
				case *ast.SendStmt:
					pass.Reportf(n.Pos(), "channel send while %s is held", mu)
				case *ast.CallExpr:
					checkCallUnderLock(pass, ioFuncs, n, mu)
				}
			})
		}
	}
	return nil
}

func checkCallUnderLock(pass *analysis.Pass, ioFuncs map[*types.Func]map[bool]bool, call *ast.CallExpr, mu string) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn != nil {
		pkg := fn.Pkg()
		if pkg == nil {
			return
		}
		switch {
		case ioPkgs[pkg.Path()]:
			pass.Reportf(call.Pos(), "call to %s.%s while %s is held (file/network I/O)", pkg.Name(), fn.Name(), mu)
		case pkg == pass.Pkg && ioFuncs[fn][true]:
			pass.Reportf(call.Pos(), "call to %s while %s is held (%s performs file/network I/O)", fn.Name(), mu, fn.Name())
		}
		return
	}
	// No static callee: builtin, conversion, or a function-typed value.
	fun := ast.Unparen(call.Fun)
	if id, ok := fun.(*ast.Ident); ok {
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			return
		}
	}
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || tv.IsType() {
		return // conversion
	}
	if _, ok := tv.Type.Underlying().(*types.Signature); ok {
		pass.Reportf(call.Pos(), "dynamic callback invocation while %s is held", mu)
	}
}
