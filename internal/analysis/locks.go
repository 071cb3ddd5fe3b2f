package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// LockPackages are the import-path suffixes lockcall and lockorder apply
// to: the serve session and registry locks, the cluster ownership table's,
// and faultnet's, whose fault decisions run inside every intercepted round
// trip, so holding its mutex across I/O would serialize the very traffic it
// perturbs.
var LockPackages = []string{"internal/serve", "internal/cluster", "internal/faultnet"}

// A Lock is one sync mutex, by both of its names.
type Lock struct {
	// Key is the mutex's structural identity: "registry.mu" for the mu
	// field of every registry, "pkg.Var" for a package-level mutex, a
	// local's name with its declaration position. Receivers written
	// differently share a Key when they reach the same field.
	Key string
	// Recv is the receiver as written, such as "s.reg.mu".
	Recv string
}

// WalkLocks walks one function body from an empty hold set. A Lock or RLock
// statement adds its mutex; an Unlock or RUnlock removes the held lock
// written the same way, else the one with the same Key. A nested block
// starts from its parent's set and keeps its changes to itself. A deferred
// Unlock leaves the set alone, so the lock holds to the end of the
// function; other defers, go statements and function literals run
// elsewhere and are not walked (each literal is a body of its own, see
// Func.Bodies). TryLock and TryRLock cannot block and are ignored.
//
// acquire, if not nil, sees each blocking acquisition with the locks held
// before it. eval, if not nil, sees every node evaluated while a lock is
// held, down to each call and send: statements, conditions, switch case
// expressions, a type switch's guard and select communications, but not
// the bodies of function literals.
func (p *Pass) WalkLocks(body *ast.BlockStmt, acquire func(l Lock, at token.Pos, held []Lock), eval func(n ast.Node, held []Lock)) {
	w := &lockWalker{p: p, acquire: acquire, eval: eval}
	w.block(body.List, nil)
}

type lockWalker struct {
	p       *Pass
	acquire func(Lock, token.Pos, []Lock)
	eval    func(ast.Node, []Lock)
}

func (w *lockWalker) block(stmts []ast.Stmt, held []Lock) {
	held = slices.Clone(held)
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			l, acquire, ok := w.p.lockOp(s.X)
			if !ok {
				break
			}
			if !acquire {
				held = release(held, l)
				continue
			}
			if w.acquire != nil {
				w.acquire(l, s.Pos(), held)
			}
			if !slices.Contains(held, l) {
				held = append(held, l)
			}
			continue
		case *ast.DeferStmt:
			continue
		}
		w.stmt(stmt, held)
	}
}

func (w *lockWalker) stmt(stmt ast.Stmt, held []Lock) {
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		w.block(s.List, held)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held)
	case *ast.IfStmt:
		w.leaf(held, s.Init, s.Cond)
		w.block(s.Body.List, held)
		if s.Else != nil {
			w.stmt(s.Else, held)
		}
	case *ast.ForStmt:
		w.leaf(held, s.Init, s.Cond, s.Post)
		w.block(s.Body.List, held)
	case *ast.RangeStmt:
		w.leaf(held, s.X)
		w.block(s.Body.List, held)
	case *ast.SwitchStmt:
		w.leaf(held, s.Init, s.Tag)
		w.clauses(s.Body, held)
	case *ast.TypeSwitchStmt:
		w.leaf(held, s.Init, s.Assign)
		w.clauses(s.Body, held)
	case *ast.SelectStmt:
		w.clauses(s.Body, held)
	case *ast.GoStmt:
		// The goroutine does not run under the spawner's locks.
	default:
		w.leaf(held, stmt)
	}
}

// clauses walks switch and select clauses: a case's expressions (a type
// switch's are types, which evaluate nothing) or communication, then its
// body.
func (w *lockWalker) clauses(body *ast.BlockStmt, held []Lock) {
	for _, c := range body.List {
		switch c := c.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				w.leaf(held, e)
			}
			w.block(c.Body, held)
		case *ast.CommClause:
			w.leaf(held, c.Comm)
			w.block(c.Body, held)
		}
	}
}

// leaf hands every node of nodes, outside function literals, to eval.
func (w *lockWalker) leaf(held []Lock, nodes ...ast.Node) {
	if len(held) == 0 || w.eval == nil {
		return
	}
	for _, n := range nodes {
		if n == nil {
			continue
		}
		ast.Inspect(n, func(n ast.Node) bool {
			if _, lit := n.(*ast.FuncLit); lit || n == nil {
				return false
			}
			w.eval(n, held)
			return true
		})
	}
}

// release drops l from held: the lock written the same way, else one that
// is the same mutex by Key.
func release(held []Lock, l Lock) []Lock {
	i := slices.IndexFunc(held, func(h Lock) bool { return h.Recv == l.Recv })
	if i < 0 {
		i = slices.IndexFunc(held, func(h Lock) bool { return h.Key == l.Key })
	}
	if i < 0 {
		return held
	}
	return slices.Delete(held, i, i+1)
}

// lockOp classifies e as a blocking acquisition or a release of a sync
// mutex; ok is false for anything else, TryLock and TryRLock included.
func (p *Pass) lockOp(e ast.Expr) (l Lock, acquire, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return Lock{}, false, false
	}
	fn := CalleeFunc(p.TypesInfo, call)
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !FuncInPkg(fn, "sync") || !isSel {
		return Lock{}, false, false
	}
	switch fn.Name() {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return Lock{}, false, false
	}
	return Lock{Key: p.lockKey(sel.X), Recv: types.ExprString(sel.X)}, acquire, true
}

// lockKey names a mutex by what it is rather than how it is written: a
// field selector resolves to "OwnerType.field", a package-level var to
// "pkg.Var", and a local to its name and declaration position (locals are
// never shared across functions, but must not collide with each other).
func (p *Pass) lockKey(e ast.Expr) string {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if sel, ok := p.TypesInfo.Selections[x]; ok {
			recv := sel.Recv()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			owner := recv.String()
			if named, ok := recv.(*types.Named); ok {
				owner = named.Obj().Name()
			}
			return owner + "." + sel.Obj().Name()
		}
		if obj := p.TypesInfo.Uses[x.Sel]; obj != nil && obj.Pkg() != nil {
			return obj.Pkg().Name() + "." + obj.Name()
		}
	case *ast.Ident:
		if obj := p.TypesInfo.Uses[x]; obj != nil {
			if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
				return obj.Pkg().Name() + "." + obj.Name()
			}
			return fmt.Sprintf("%s@%d", obj.Name(), obj.Pos())
		}
	}
	return types.ExprString(e)
}
