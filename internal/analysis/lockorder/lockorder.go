// Package lockorder guards the cluster era's deadlock-freedom invariant: the
// serve session/registry locks and the cluster ownership-table locks must be
// acquired in one global order. The analyzer builds a per-package
// lock-acquisition graph — an edge A→B for every site that blocking-acquires
// B while A is held, including acquisitions reached through same-package
// helper calls — and flags every edge that closes a cycle, plus any site that
// re-acquires a mutex already held (sync mutexes are not reentrant: that is a
// self-deadlock, not a cycle).
//
// Lock identity is structural, not lexical: `s.reg.mu` and `r.mu` are the
// same lock when both resolve to the `mu` field of the same struct type, so
// an inversion split across two functions with different receiver names is
// still one cycle.
//
// Like lockcall, the analysis is syntactic within a function (hold sets are
// tracked per block; a deferred Unlock holds to function end) and
// TryLock/TryRLock spans are not tracked — TryLock cannot block, and the
// repo's registry→session direction leans on exactly that property, so a
// Try-acquisition neither creates an edge nor joins the held set. That makes
// the TryLock discipline in internal/serve (blocking order is
// session.mu→registry.mu; the reverse direction must use TryLock) the
// machine-checked escape hatch rather than an unexamined exception.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"mdes/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "reports lock-acquisition cycles and same-mutex re-acquisition in the serve/cluster packages",
	Run:  run,
}

// Packages are the import-path suffixes the analyzer applies to.
var Packages = []string{"internal/serve", "internal/cluster", "internal/faultnet"}

// site is one location that blocking-acquires `to` while `from` is held,
// with the helper call (if any) for the diagnostic.
type site struct {
	pos token.Pos
	via string // "" for a direct acquisition, else the called helper
}

type graph struct {
	pass  *analysis.Pass
	edges map[string]map[string][]site
	// acquires is the per-function transitive blocking-acquisition set.
	acquires map[*types.Func]map[string]bool
	bodies   map[*types.Func]*ast.FuncDecl
}

func run(pass *analysis.Pass) error {
	if !analysis.PkgPathMatches(pass.Pkg.Path(), Packages) {
		return nil
	}
	g := &graph{
		pass:     pass,
		edges:    map[string]map[string][]site{},
		acquires: map[*types.Func]map[string]bool{},
		bodies:   map[*types.Func]*ast.FuncDecl{},
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					g.bodies[fn] = fd
				}
			}
		}
	}
	g.closeAcquires()
	for _, fd := range g.sortedBodies() {
		g.scanBlock(fd.Body.List, nil)
		// Function literals (goroutine bodies, callbacks) run on their own
		// stack with an empty hold set; scan each as an independent root.
		// scanBlock never descends into them, so each body is scanned once.
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				g.scanBlock(lit.Body.List, nil)
			}
			return true
		})
	}
	g.reportCycles()
	return nil
}

// sortedBodies returns the package functions in source order, so edge
// first-seen positions (and therefore diagnostics) are deterministic.
func (g *graph) sortedBodies() []*ast.FuncDecl {
	out := make([]*ast.FuncDecl, 0, len(g.bodies))
	for _, fd := range g.bodies {
		out = append(out, fd)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// lockKey canonicalizes the receiver of a sync.(RW)Mutex method call. A field
// selector resolves to "OwnerStruct.field" via the type checker, a
// package-level var to "pkg.Var", and a local var to its name qualified by
// declaration position (locals cannot be shared across the functions the
// graph joins, but must not collide with each other).
func lockKey(pass *analysis.Pass, e ast.Expr) string {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[x]; ok {
			recv := sel.Recv()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			owner := recv.String()
			if named, ok := recv.(*types.Named); ok {
				owner = named.Obj().Name()
			}
			return owner + "." + sel.Obj().Name()
		}
		if obj := pass.TypesInfo.Uses[x.Sel]; obj != nil && obj.Pkg() != nil {
			return obj.Pkg().Name() + "." + obj.Name()
		}
	case *ast.Ident:
		if obj := pass.TypesInfo.Uses[x]; obj != nil {
			if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
				return obj.Pkg().Name() + "." + obj.Name()
			}
			return fmt.Sprintf("%s@%d", obj.Name(), obj.Pos())
		}
	}
	return types.ExprString(e)
}

// lockCall classifies e as a sync mutex operation. TryLock/TryRLock
// deliberately match neither acquire nor release.
func lockCall(pass *analysis.Pass, e ast.Expr) (key string, acquire, release bool) {
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
	switch fn.Name() {
	case "Lock", "RLock":
		return lockKey(pass, sel.X), true, false
	case "Unlock", "RUnlock":
		return lockKey(pass, sel.X), false, true
	}
	return "", false, false
}

// held is the ordered set of mutexes currently held on one syntactic path.
type held struct {
	order []string
	set   map[string]bool
}

func (h *held) clone() *held {
	c := &held{set: map[string]bool{}}
	if h != nil {
		c.order = append(c.order, h.order...)
		for k := range h.set {
			c.set[k] = true
		}
	}
	return c
}

// scanBlock walks one statement list tracking the hold set, recording an edge
// (or reporting a re-acquisition) at every blocking Lock/RLock, and recording
// transitive edges at every same-package call made while locks are held.
func (g *graph) scanBlock(stmts []ast.Stmt, h *held) {
	cur := h.clone()
	for _, stmt := range stmts {
		if es, ok := stmt.(*ast.ExprStmt); ok {
			if key, acq, rel := lockCall(g.pass, es.X); acq || rel {
				if acq {
					g.acquire(key, es.Pos(), cur)
				} else {
					g.release(key, cur)
				}
				continue
			}
		}
		if _, ok := stmt.(*ast.DeferStmt); ok {
			// `defer mu.Unlock()` keeps the lock held to function end: no
			// change to the hold set. Other defers run outside the span.
			continue
		}
		g.scanStmt(stmt, cur)
	}
}

func (g *graph) acquire(key string, pos token.Pos, cur *held) {
	if cur.set[key] {
		g.pass.Reportf(pos, "mutex %s acquired while already held (sync mutexes are not reentrant: this self-deadlocks)", key)
		return
	}
	for _, from := range cur.order {
		g.addEdge(from, key, pos, "")
	}
	cur.order = append(cur.order, key)
	cur.set[key] = true
}

func (g *graph) release(key string, cur *held) {
	if !cur.set[key] {
		return
	}
	delete(cur.set, key)
	for i, k := range cur.order {
		if k == key {
			cur.order = append(cur.order[:i:i], cur.order[i+1:]...)
			break
		}
	}
}

func (g *graph) scanStmt(stmt ast.Stmt, cur *held) {
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		g.scanBlock(s.List, cur)
	case *ast.IfStmt:
		if s.Init != nil {
			g.checkLeaf(s.Init, cur)
		}
		g.checkLeaf(s.Cond, cur)
		g.scanBlock(s.Body.List, cur)
		if s.Else != nil {
			g.scanStmt(s.Else, cur)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			g.checkLeaf(s.Init, cur)
		}
		if s.Cond != nil {
			g.checkLeaf(s.Cond, cur)
		}
		if s.Post != nil {
			g.checkLeaf(s.Post, cur)
		}
		g.scanBlock(s.Body.List, cur)
	case *ast.RangeStmt:
		g.checkLeaf(s.X, cur)
		g.scanBlock(s.Body.List, cur)
	case *ast.SwitchStmt:
		if s.Init != nil {
			g.checkLeaf(s.Init, cur)
		}
		if s.Tag != nil {
			g.checkLeaf(s.Tag, cur)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				g.scanBlock(cc.Body, cur)
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			g.checkLeaf(s.Init, cur)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				g.scanBlock(cc.Body, cur)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				g.scanBlock(cc.Body, cur)
			}
		}
	case *ast.GoStmt:
		// The goroutine body runs on its own stack with an empty hold set;
		// its own acquisitions are scanned when its callee is (for function
		// literals the direct acquisitions appear via checkLeaf with no
		// transitive context, which is conservative but cycle-complete for
		// declared helpers).
	default:
		g.checkLeaf(stmt, cur)
	}
}

// checkLeaf inspects a leaf statement or expression for calls made while
// locks are held: a same-package static callee contributes its transitive
// acquisition set as edges. Function literal bodies are skipped — they run
// when called, not where written.
func (g *graph) checkLeaf(n ast.Node, cur *held) {
	if n == nil || len(cur.order) == 0 {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeFunc(g.pass.TypesInfo, call)
		if fn == nil || fn.Pkg() != g.pass.Pkg {
			return true
		}
		for _, key := range sortedKeys(g.acquires[fn]) {
			if cur.set[key] {
				g.pass.Reportf(call.Pos(), "call to %s may re-acquire %s while it is held (sync mutexes are not reentrant: this self-deadlocks)", fn.Name(), key)
				continue
			}
			for _, from := range cur.order {
				g.addEdge(from, key, call.Pos(), fn.Name())
			}
		}
		return true
	})
}

func (g *graph) addEdge(from, to string, pos token.Pos, via string) {
	m := g.edges[from]
	if m == nil {
		m = map[string][]site{}
		g.edges[from] = m
	}
	m[to] = append(m[to], site{pos: pos, via: via})
}

// closeAcquires computes, for every package function, the set of lock keys it
// may blocking-acquire directly or through same-package calls — a worklist
// fixpoint like lockcall's ioClosure.
func (g *graph) closeAcquires() {
	direct := map[*types.Func]map[string]bool{}
	calls := map[*types.Func][]*types.Func{}
	for fn, fd := range g.bodies {
		acq := map[string]bool{}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeferStmt, *ast.GoStmt, *ast.FuncLit:
				// Deferred calls run after the hold span; goroutine bodies and
				// function literals run on another stack or when invoked —
				// none acquire synchronously on the caller's path.
				return false
			case *ast.CallExpr:
				if key, isAcq, _ := lockCall(g.pass, n); isAcq {
					acq[key] = true
				}
				if callee := analysis.CalleeFunc(g.pass.TypesInfo, n); callee != nil && callee.Pkg() == g.pass.Pkg {
					calls[fn] = append(calls[fn], callee)
				}
			}
			return true
		})
		direct[fn] = acq
	}
	for fn, acq := range direct {
		g.acquires[fn] = map[string]bool{}
		for k := range acq {
			g.acquires[fn][k] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for fn := range g.bodies {
			for _, callee := range calls[fn] {
				for k := range g.acquires[callee] {
					if !g.acquires[fn][k] {
						g.acquires[fn][k] = true
						changed = true
					}
				}
			}
		}
	}
}

// reportCycles flags every site of every edge A→B where B can reach A back
// through the graph: each such acquisition completes a lock-order cycle.
// Reporting per site (rather than once per cycle) points at each concrete
// acquisition that must move to restore a global order.
func (g *graph) reportCycles() {
	for _, from := range sortedEdgeKeys(g.edges) {
		tos := g.edges[from]
		for _, to := range sortedEdgeTargets(tos) {
			path := g.pathBetween(to, from)
			if path == nil {
				continue
			}
			cycle := strings.Join(append([]string{from}, path...), " -> ")
			for _, st := range tos[to] {
				what := "acquiring " + to
				if st.via != "" {
					what = "call to " + st.via + " acquires " + to
				}
				g.pass.Reportf(st.pos, "%s while %s is held forms a lock-order cycle: %s", what, from, cycle)
			}
		}
	}
}

// pathBetween returns a shortest node path from src to dst along graph edges
// (inclusive of both ends), or nil if unreachable.
func (g *graph) pathBetween(src, dst string) []string {
	parent := map[string]string{src: src}
	queue := []string{src}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n == dst {
			var rev []string
			for cur := dst; ; cur = parent[cur] {
				rev = append(rev, cur)
				if cur == src {
					break
				}
			}
			path := make([]string, 0, len(rev))
			for i := len(rev) - 1; i >= 0; i-- {
				path = append(path, rev[i])
			}
			return path
		}
		for _, next := range sortedEdgeTargets(g.edges[n]) {
			if _, seen := parent[next]; !seen {
				parent[next] = n
				queue = append(queue, next)
			}
		}
	}
	return nil
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedEdgeKeys(m map[string]map[string][]site) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedEdgeTargets(m map[string][]site) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
