// Package analysis is a small, dependency-free counterpart of
// golang.org/x/tools/go/analysis: enough scaffolding to write typed AST
// analyzers, run them under `go vet -vettool` (see unitchecker.go), and test
// them against source fixtures (see the analyzertest subpackage).
//
// The repo cannot vendor x/tools, so the framework re-implements the three
// pieces the mdes-vet suite needs — an Analyzer/Pass API, the cmd/go vet
// driver protocol, and a `// want`-comment test harness — on top of go/ast,
// go/types, and go/importer only.
//
// # Suppressions
//
// A diagnostic can be waived in place with a comment of the form
//
//	//mdes:allow(<analyzer>) <reason>
//
// attached to (same line as, or the line immediately above) a statement or
// declaration. The waiver covers the whole statement it is attached to,
// including nested blocks — e.g. placing it on an `if ws == nil {` line
// waives the heap-fallback branch of a workspace hot path. The reason text is
// mandatory by convention: a waiver documents why the invariant legitimately
// does not apply, it is not an off switch. A waiver that suppresses no
// finding of its analyzer is stale (Pass.StaleAllows), and the vet driver
// reports it: code that moved out from under a waiver must take it along.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //mdes:allow(<name>) suppression comments.
	Name string
	// Doc is a one-paragraph description, shown by `mdes-vet help`.
	Doc string
	// Run performs the check, reporting findings through the pass.
	Run func(*Pass) error
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Pass holds one type-checked package being analyzed by one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files is every file of the package, test files included: waivers
	// are read from all of them.
	Files []*ast.File
	// Source is the package's non-test files and Funcs their function
	// declarations with bodies, in source order. The suite guards
	// production invariants, so analyzers read these and skip test code.
	Source    []*ast.File
	Funcs     []*Func
	Pkg       *types.Package
	TypesInfo *types.Info

	diags   []Diagnostic
	allowed []lineSpan  // suppressed spans for this analyzer, lazily built
	waivers []token.Pos // this analyzer's directives, built with allowed
	used    map[token.Pos]bool
	built   bool
}

// lineSpan is an inclusive suppressed line range within one file, and the
// directive that waives it.
type lineSpan struct {
	file     string
	from, to int
	waiver   token.Pos
}

// Reportf records a diagnostic unless a //mdes:allow(<analyzer>) waiver
// covers pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.suppressed(pos) {
		return
	}
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostics returns the findings reported so far, sorted by position.
func (p *Pass) Diagnostics() []Diagnostic {
	sort.SliceStable(p.diags, func(i, j int) bool { return p.diags[i].Pos < p.diags[j].Pos })
	return p.diags
}

// A Func is one function declaration with a body.
type Func struct {
	Decl *ast.FuncDecl
	Obj  *types.Func
}

// Bodies returns the declaration's body, then the body of each function
// literal in it, in source order: each runs on its own stack, with its own
// defers.
func (f *Func) Bodies() []*ast.BlockStmt {
	bodies := []*ast.BlockStmt{f.Decl.Body}
	ast.Inspect(f.Decl.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			bodies = append(bodies, lit.Body)
		}
		return true
	})
	return bodies
}

// Summarize closes one kind of fact over the package's static calls: a
// function has a fact when its own body shows it, or when it calls a
// function of this package that has it. scan walks one function, passing
// each fact its body shows to fact and each call the analyzer looks
// through to call; which calls carry facts is the analyzer's rule.
func Summarize[K comparable](p *Pass, scan func(fn *Func, fact func(K), call func(*ast.CallExpr))) map[*types.Func]map[K]bool {
	facts := map[*types.Func]map[K]bool{}
	calls := map[*types.Func][]*types.Func{}
	for _, fn := range p.Funcs {
		own := map[K]bool{}
		scan(fn, func(k K) { own[k] = true }, func(call *ast.CallExpr) {
			if callee := CalleeFunc(p.TypesInfo, call); callee != nil && callee.Pkg() == p.Pkg {
				calls[fn.Obj] = append(calls[fn.Obj], callee)
			}
		})
		facts[fn.Obj] = own
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range p.Funcs {
			for _, callee := range calls[fn.Obj] {
				for k := range facts[callee] {
					if !facts[fn.Obj][k] {
						facts[fn.Obj][k], changed = true, true
					}
				}
			}
		}
	}
	return facts
}

// TypeOf returns the type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.TypesInfo.TypeOf(e) }

// allowPrefix introduces a suppression comment.
const allowPrefix = "//mdes:allow("

// An AllowDirective is one parsed //mdes:allow(<analyzer>) <reason> waiver.
type AllowDirective struct {
	Analyzer string
	Reason   string
}

// ParseAllows extracts the waiver directives from one comment's raw text. A
// directive is only recognised when the comment itself begins with
// "//mdes:allow(" — prose that merely mentions the marker (doc comments,
// usage strings) is not a waiver. Several directives may share one comment:
// each claims the text up to the next "//mdes:allow(" as its reason.
//
//	//mdes:allow(noalloc) heap fallback //mdes:allow(detrand) seeded locally
//
// yields two directives. A malformed head (no closing parenthesis, empty
// analyzer name) yields nil.
func ParseAllows(text string) []AllowDirective {
	if !strings.HasPrefix(text, allowPrefix) {
		return nil
	}
	var out []AllowDirective
	rest := text
	for strings.HasPrefix(rest, allowPrefix) {
		body := rest[len(allowPrefix):]
		close := strings.IndexByte(body, ')')
		if close < 0 {
			return nil
		}
		name := strings.TrimSpace(body[:close])
		if name == "" || strings.ContainsAny(name, "( \t") {
			return nil
		}
		tail := body[close+1:]
		reason := tail
		if next := strings.Index(tail, allowPrefix); next >= 0 {
			reason, rest = tail[:next], tail[next:]
		} else {
			rest = ""
		}
		out = append(out, AllowDirective{Analyzer: name, Reason: strings.TrimSpace(reason)})
	}
	return out
}

// suppressed reports whether pos is covered by a waiver for this analyzer,
// marking every waiver that covers it used.
func (p *Pass) suppressed(pos token.Pos) bool {
	p.buildAllowed()
	position := p.Fset.Position(pos)
	hit := false
	for _, s := range p.allowed {
		if s.file == position.Filename && position.Line >= s.from && position.Line <= s.to {
			p.used[s.waiver], hit = true, true
		}
	}
	return hit
}

// StaleAllows returns, in source order, the positions of this analyzer's
// waivers that have suppressed no finding. Call it after the analyzer ran.
func (p *Pass) StaleAllows() []token.Pos {
	p.buildAllowed()
	var out []token.Pos
	for _, w := range p.waivers {
		if !p.used[w] {
			out = append(out, w)
		}
	}
	return out
}

// buildAllowed scans comments for //mdes:allow(<name>) markers, once, and
// resolves each to the outermost statement or declaration starting on the
// marker's line (or the next line, for a marker on a line of its own).
func (p *Pass) buildAllowed() {
	if p.built {
		return
	}
	p.built, p.used = true, map[token.Pos]bool{}
	want := p.Analyzer.Name
	for _, f := range p.Files {
		at := map[int]token.Pos{} // candidate attachment line → its directive
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, d := range ParseAllows(c.Text) {
					if d.Analyzer != want {
						continue
					}
					l := p.Fset.Position(c.Pos()).Line
					p.waivers = append(p.waivers, c.Pos())
					at[l], at[l+1] = c.Pos(), c.Pos()
					break
				}
			}
		}
		if len(at) == 0 {
			continue
		}
		fname := p.Fset.Position(f.Pos()).Filename
		claimed := map[int]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				return false
			}
			switch n.(type) {
			case ast.Stmt, ast.Decl:
			default:
				return true
			}
			start := p.Fset.Position(n.Pos()).Line
			if claimed[start] {
				return true // outermost node on this line already claimed it
			}
			if w, ok := at[start]; ok {
				claimed[start] = true
				p.allowed = append(p.allowed, lineSpan{
					file:   fname,
					from:   start,
					to:     p.Fset.Position(n.End()).Line,
					waiver: w,
				})
			}
			return true
		})
		// A marker that attaches to no statement (e.g. at top level between
		// declarations) still suppresses its own two candidate lines, so a
		// waiver on a var declaration line works too.
		for l, w := range at {
			if !claimed[l] {
				p.allowed = append(p.allowed, lineSpan{file: fname, from: l, to: l, waiver: w})
			}
		}
	}
}

// --- shared typed-AST helpers used by several analyzers ---

// CalleeFunc resolves the static callee of call, or nil for dynamic calls,
// builtins, and type conversions. Interface method calls resolve to the
// interface's *types.Func.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// IsBuiltinCall reports whether call invokes the named builtin (make, new,
// append, ...).
func IsBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// FuncInPkg reports whether fn is a package-level function (or method) of a
// package whose import path is exactly path.
func FuncInPkg(fn *types.Func, path string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == path
}

// PkgPathMatches reports whether path equals one of the patterns or ends with
// "/"+pattern — the loose matching that lets "internal/serve" select
// mdes/internal/serve while fixtures use short paths like "serve".
func PkgPathMatches(path string, patterns []string) bool {
	for _, pat := range patterns {
		if path == pat || strings.HasSuffix(path, "/"+pat) {
			return true
		}
	}
	return false
}

// IsContextType reports whether t is context.Context.
func IsContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// HasDoc reports whether the declaration's doc comment contains the given
// marker line (e.g. "mdes:noalloc").
func HasDoc(doc *ast.CommentGroup, marker string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == marker {
			return true
		}
	}
	return false
}
