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
// Hold sets come from the walker lockcall uses too, analysis.WalkLocks:
// syntactic within a function, a deferred Unlock holding to function end,
// calls in switch case expressions, type-switch guards and select
// communications counted under the lock, and each function literal's body
// walked as a root of its own with nothing held. A helper's acquisitions are
// the locks it takes on its own path, closed over its same-package calls by
// analysis.Summarize (not through defer, go or function literals).
// TryLock/TryRLock spans are not tracked — TryLock cannot block, and the
// repo's registry→session direction leans on exactly that property, so a
// Try-acquisition neither creates an edge nor joins the held set. That makes
// the TryLock discipline in internal/serve (blocking order is
// session.mu→registry.mu; the reverse direction must use TryLock) the
// machine-checked escape hatch rather than an unexamined exception.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"

	"mdes/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "reports lock-acquisition cycles and same-mutex re-acquisition in the serve/cluster packages",
	Run:  run,
}

// site is one location that blocking-acquires `to` while `from` is held,
// with the helper call (if any) for the diagnostic.
type site struct {
	pos token.Pos
	via string // "" for a direct acquisition, else the called helper
}

type graph struct {
	pass  *analysis.Pass
	edges map[string]map[string][]site
	// acquires is each function's transitive blocking-acquisition set.
	acquires map[*types.Func]map[string]bool
}

func run(pass *analysis.Pass) error {
	if !analysis.PkgPathMatches(pass.Pkg.Path(), analysis.LockPackages) {
		return nil
	}
	g := &graph{pass: pass, edges: map[string]map[string][]site{}}
	// A function acquires what it locks on its own path and what the
	// functions it calls there acquire. Deferred calls run after the hold
	// span, and goroutines and function literals on another stack or when
	// invoked, so none of them is looked through.
	g.acquires = analysis.Summarize(pass, func(fn *analysis.Func, fact func(string), call func(*ast.CallExpr)) {
		pass.WalkLocks(fn.Decl.Body, func(l analysis.Lock, _ token.Pos, _ []analysis.Lock) { fact(l.Key) }, nil)
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeferStmt, *ast.GoStmt, *ast.FuncLit:
				return false
			case *ast.CallExpr:
				call(n)
			}
			return true
		})
	})
	for _, fn := range pass.Funcs {
		for _, body := range fn.Bodies() {
			pass.WalkLocks(body, g.acquire, g.call)
		}
	}
	g.reportCycles()
	return nil
}

// acquire records an edge from every held lock to l, or reports l as
// re-acquired.
func (g *graph) acquire(l analysis.Lock, pos token.Pos, held []analysis.Lock) {
	if holds(held, l.Key) {
		g.pass.Reportf(pos, "mutex %s acquired while already held (sync mutexes are not reentrant: this self-deadlocks)", l.Key)
		return
	}
	g.addEdges(held, l.Key, pos, "")
}

// call records, for a same-package call made while locks are held, an
// edge to every lock its callee may acquire.
func (g *graph) call(n ast.Node, held []analysis.Lock) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return
	}
	fn := analysis.CalleeFunc(g.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() != g.pass.Pkg {
		return
	}
	for _, key := range sortedKeys(g.acquires[fn]) {
		if holds(held, key) {
			g.pass.Reportf(call.Pos(), "call to %s may re-acquire %s while it is held (sync mutexes are not reentrant: this self-deadlocks)", fn.Name(), key)
			continue
		}
		g.addEdges(held, key, call.Pos(), fn.Name())
	}
}

func holds(held []analysis.Lock, key string) bool {
	return slices.ContainsFunc(held, func(h analysis.Lock) bool { return h.Key == key })
}

// addEdges records from -> to for each mutex held, in acquisition order.
func (g *graph) addEdges(held []analysis.Lock, to string, pos token.Pos, via string) {
	for i, h := range held {
		if !holds(held[:i], h.Key) {
			g.addEdge(h.Key, to, pos, via)
		}
	}
}

func (g *graph) addEdge(from, to string, pos token.Pos, via string) {
	m := g.edges[from]
	if m == nil {
		m = map[string][]site{}
		g.edges[from] = m
	}
	m[to] = append(m[to], site{pos: pos, via: via})
}

// reportCycles flags every site of every edge A→B where B can reach A back
// through the graph: each such acquisition completes a lock-order cycle.
// Reporting per site (rather than once per cycle) points at each concrete
// acquisition that must move to restore a global order.
func (g *graph) reportCycles() {
	for _, from := range sortedKeys(g.edges) {
		tos := g.edges[from]
		for _, to := range sortedKeys(tos) {
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
			path := []string{dst}
			for cur := dst; cur != src; {
				cur = parent[cur]
				path = append(path, cur)
			}
			slices.Reverse(path)
			return path
		}
		for _, next := range sortedKeys(g.edges[n]) {
			if _, seen := parent[next]; !seen {
				parent[next] = n
				queue = append(queue, next)
			}
		}
	}
	return nil
}

// sortedKeys returns m's keys in order, so diagnostics are deterministic.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
