// Package lockcall guards the server's latency and liveness invariants: a
// sync.Mutex/RWMutex in internal/serve protects in-memory session state, and
// one in internal/cluster protects the ownership table; neither must ever
// be held across blocking operations (in cluster in particular, no network
// I/O under the table's lock — a slow peer would stall ownership lookups
// fleet-wide).
//
// Within the configured packages, after a mu.Lock()/mu.RLock() and before the
// matching Unlock in the same block (a deferred Unlock holds to function
// end), the analyzer flags:
//
//   - channel sends
//   - calls into I/O packages (os, net, net/http, io, bufio, and
//     mdes/internal/faultfs, whose FS interface carries every session
//     record), directly or through a same-package helper that transitively
//     performs such I/O (computed by a package-local call-graph fixpoint)
//   - dynamic invocations of function-typed values (user callbacks)
//
// The analysis is per-block and syntactic: it does not track locks across
// function boundaries, and sync.Mutex.TryLock is ignored (a known, documented
// limitation). Intentional hold-across-I/O sites — e.g. the drain-time
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

// Packages are the import-path suffixes the analyzer applies to. faultnet's
// fault decisions run inside every intercepted round trip, so holding its
// mutex across I/O would serialize the very traffic it perturbs.
var Packages = []string{"internal/serve", "internal/cluster", "internal/faultnet"}

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
	if !analysis.PkgPathMatches(pass.Pkg.Path(), Packages) {
		return nil
	}
	ioFuncs := ioClosure(pass)
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				scanBlock(pass, ioFuncs, fd.Body.List, map[string]bool{})
			}
		}
	}
	return nil
}

// lockOp classifies a statement as a mutex acquisition or release and
// returns the printed receiver expression ("s.reg.mu").
func lockOp(pass *analysis.Pass, stmt ast.Stmt) (recv string, acquire, release bool) {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return "", false, false
	}
	return lockCall(pass, es.X)
}

func lockCall(pass *analysis.Pass, e ast.Expr) (recv string, acquire, release bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", false, false
	}
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false, false
	}
	recv = types.ExprString(sel.X)
	switch fn.Name() {
	case "Lock", "RLock":
		return recv, true, false
	case "Unlock", "RUnlock":
		return recv, false, true
	}
	return "", false, false
}

// scanBlock walks one statement list tracking which mutexes are held. Nested
// control-flow bodies are scanned recursively with a copy of the hold set.
func scanBlock(pass *analysis.Pass, ioFuncs map[*types.Func]bool, stmts []ast.Stmt, held map[string]bool) {
	cur := map[string]bool{}
	for k := range held {
		cur[k] = true
	}
	for _, stmt := range stmts {
		if recv, acq, rel := lockOp(pass, stmt); acq || rel {
			if acq {
				cur[recv] = true
			} else {
				delete(cur, recv)
			}
			continue
		}
		if ds, ok := stmt.(*ast.DeferStmt); ok {
			// `defer mu.Unlock()` keeps the lock to function end: the hold
			// set is unchanged. Other defers run after the block, outside
			// the hold span, so they are not scanned.
			if _, _, rel := lockCall(pass, ds.Call); rel {
				continue
			}
			continue
		}
		scanStmt(pass, ioFuncs, stmt, cur)
	}
}

// scanStmt checks one statement (and its nested blocks) for blocking
// operations under the currently-held mutexes.
func scanStmt(pass *analysis.Pass, ioFuncs map[*types.Func]bool, stmt ast.Stmt, held map[string]bool) {
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		scanBlock(pass, ioFuncs, s.List, held)
		return
	case *ast.IfStmt:
		// The init statement hides calls just as well as the condition does:
		// `if err := saveSnapshot(...); err != nil { ... }`.
		if s.Init != nil {
			checkLeaf(pass, ioFuncs, s.Init, held)
		}
		checkLeaf(pass, ioFuncs, s.Cond, held)
		scanBlock(pass, ioFuncs, s.Body.List, held)
		if s.Else != nil {
			scanStmt(pass, ioFuncs, s.Else, held)
		}
		return
	case *ast.ForStmt:
		if s.Init != nil {
			checkLeaf(pass, ioFuncs, s.Init, held)
		}
		checkLeaf(pass, ioFuncs, s.Cond, held)
		if s.Post != nil {
			checkLeaf(pass, ioFuncs, s.Post, held)
		}
		scanBlock(pass, ioFuncs, s.Body.List, held)
		return
	case *ast.RangeStmt:
		checkLeaf(pass, ioFuncs, s.X, held)
		scanBlock(pass, ioFuncs, s.Body.List, held)
		return
	case *ast.SwitchStmt:
		if s.Init != nil {
			checkLeaf(pass, ioFuncs, s.Init, held)
		}
		checkLeaf(pass, ioFuncs, s.Tag, held)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				scanBlock(pass, ioFuncs, cc.Body, held)
			}
		}
		return
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			checkLeaf(pass, ioFuncs, s.Init, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				scanBlock(pass, ioFuncs, cc.Body, held)
			}
		}
		return
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				scanBlock(pass, ioFuncs, cc.Body, held)
			}
		}
		return
	case *ast.GoStmt:
		// A goroutine launched while the lock is held does not itself run
		// under the lock.
		return
	}
	if len(held) > 0 {
		checkLeaf(pass, ioFuncs, stmt, held)
	}
}

// anyHeld returns a deterministic representative of the held mutexes for use
// in diagnostics.
func anyHeld(held map[string]bool) string {
	best := ""
	for k := range held {
		if best == "" || k < best {
			best = k
		}
	}
	return best
}

// checkLeaf inspects a leaf statement or expression for blocking operations.
// Function literal bodies are skipped: they execute when called, not where
// they are written.
func checkLeaf(pass *analysis.Pass, ioFuncs map[*types.Func]bool, n ast.Node, held map[string]bool) {
	if len(held) == 0 || n == nil {
		return
	}
	mu := anyHeld(held)
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send while %s is held", mu)
		case *ast.CallExpr:
			checkCallUnderLock(pass, ioFuncs, n, mu)
		}
		return true
	})
}

func checkCallUnderLock(pass *analysis.Pass, ioFuncs map[*types.Func]bool, call *ast.CallExpr, mu string) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn != nil {
		pkg := fn.Pkg()
		if pkg == nil {
			return
		}
		switch {
		case ioPkgs[pkg.Path()]:
			pass.Reportf(call.Pos(), "call to %s.%s while %s is held (file/network I/O)", pkg.Name(), fn.Name(), mu)
		case pkg == pass.Pkg && ioFuncs[fn]:
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

// ioClosure computes the set of package-local functions that transitively
// perform I/O: a worklist fixpoint over the package's internal call graph.
func ioClosure(pass *analysis.Pass) map[*types.Func]bool {
	// bodies maps each package function to the functions it calls.
	bodies := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				bodies[fn] = fd
			}
		}
	}
	io := map[*types.Func]bool{}
	changed := true
	for changed {
		changed = false
		for fn, fd := range bodies {
			if io[fn] {
				continue
			}
			if callsIO(pass, fd, io) {
				io[fn] = true
				changed = true
			}
		}
	}
	return io
}

func callsIO(pass *analysis.Pass, fd *ast.FuncDecl, io map[*types.Func]bool) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeFunc(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if ioPkgs[fn.Pkg().Path()] || (fn.Pkg() == pass.Pkg && io[fn]) {
			found = true
			return false
		}
		return true
	})
	return found
}
