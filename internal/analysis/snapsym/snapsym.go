// Package snapsym turns "restart resumes bit-for-bit" from a test into a
// compile-time-adjacent invariant: every struct that flows through the
// durability boundary — checkpoint.AppendFrame, a Snapshot method, a
// Restore* function, or the cluster handoff codec — must encode and decode
// symmetrically.
//
// A type is a snapshot root when, in its declaring package, the analyzer sees
// it json.Marshal'ed in a function that also calls checkpoint.AppendFrame
// (encode flow), json.Unmarshal'ed in a function that also calls
// checkpoint.Frames or checkpoint.NextFrame (decode flow), returned by a
// method named Snapshot, or
// accepted by a function whose name starts with Restore/restore.
//
// On each root (and, recursively, every struct type reachable through its
// fields, stopping at types with custom JSON/Text codecs) it reports:
//
//   - unexported fields: encoding/json drops them silently, so state that
//     looks persisted is lost on every restart;
//   - fields tagged `json:"-"`: same silent loss, one typo away from the
//     legitimate `json:"-,"`;
//   - duplicate effective JSON names: decode keeps one of the two, encode
//     order decides which — nondeterministic corruption;
//   - for unexported roots with both encode and decode flows in the package
//     (so all consumers are visible), exported fields that no code ever
//     reads: a field written at encode but never consumed after restore is
//     the write-side of an encode/decode asymmetry.
//
// Cross-package reachable structs are checked too (via type information, not
// AST), with the diagnostic anchored at the in-package field that references
// them.
package snapsym

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strings"

	"mdes/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "snapsym",
	Doc:  "reports encode/decode asymmetries in structs that flow through snapshots, checkpoints, or handoffs",
	Run:  run,
}

// checkpointPkgs are the import-path suffixes of the framing package.
var checkpointPkgs = []string{"internal/checkpoint", "checkpoint"}

type checker struct {
	pass    *analysis.Pass
	encode  map[*types.Named]bool
	decode  map[*types.Named]bool
	roots   map[*types.Named]token.Pos // first detection site, for fallback anchoring
	reads   map[*types.Var]bool        // fields read via selector anywhere in the package
	fldPos  map[*types.Var]token.Pos   // AST positions of in-package struct fields
	visited map[*types.Named]bool
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:    pass,
		encode:  map[*types.Named]bool{},
		decode:  map[*types.Named]bool{},
		roots:   map[*types.Named]token.Pos{},
		reads:   map[*types.Var]bool{},
		fldPos:  map[*types.Var]token.Pos{},
		visited: map[*types.Named]bool{},
	}
	for _, f := range pass.Source {
		c.collectFile(f)
	}
	for _, fn := range pass.Funcs {
		c.classifyFunc(fn.Decl)
	}
	if len(c.roots) == 0 {
		return nil
	}
	sorted := make([]*types.Named, 0, len(c.roots))
	for n := range c.roots {
		sorted = append(sorted, n)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Obj().Pos() < sorted[j].Obj().Pos() })
	for _, root := range sorted {
		c.walkStruct(root, root.Obj().Name(), c.roots[root])
		if !root.Obj().Exported() && c.encode[root] && c.decode[root] {
			c.checkConsumed(root)
		}
	}
	return nil
}

// collectFile gathers field positions and field reads from one file.
func (c *checker) collectFile(f *ast.File) {
	for _, decl := range f.Decls {
		d, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range d.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok {
				continue
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				continue
			}
			c.recordFieldPositions(st)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if s, ok := c.pass.TypesInfo.Selections[sel]; ok && s.Kind() == types.FieldVal {
			if v, ok := s.Obj().(*types.Var); ok {
				c.reads[v] = true
			}
		}
		return true
	})
}

func (c *checker) recordFieldPositions(st *ast.StructType) {
	for _, field := range st.Fields.List {
		if len(field.Names) == 0 {
			// Embedded field: anchor at the type expression.
			if v := c.embeddedVar(field.Type); v != nil {
				c.fldPos[v] = field.Type.Pos()
			}
			continue
		}
		for _, name := range field.Names {
			if v, ok := c.pass.TypesInfo.Defs[name].(*types.Var); ok {
				c.fldPos[v] = name.Pos()
			}
		}
	}
}

func (c *checker) embeddedVar(e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.Sel
		default:
			if id, ok := e.(*ast.Ident); ok {
				if v, ok := c.pass.TypesInfo.Defs[id].(*types.Var); ok {
					return v
				}
			}
			return nil
		}
	}
}

// classifyFunc detects the four snapshot flows in one function.
func (c *checker) classifyFunc(fd *ast.FuncDecl) {
	name := fd.Name.Name
	if fd.Recv != nil && name == "Snapshot" && fd.Type.Results != nil && len(fd.Type.Results.List) >= 1 {
		if n := c.namedStructInPkg(c.pass.TypeOf(fd.Type.Results.List[0].Type)); n != nil {
			c.addRoot(n, fd.Pos(), true, false)
		}
	}
	if strings.HasPrefix(name, "Restore") || strings.HasPrefix(name, "restore") {
		for _, p := range fd.Type.Params.List {
			if n := c.namedStructInPkg(c.pass.TypeOf(p.Type)); n != nil {
				c.addRoot(n, fd.Pos(), false, true)
			}
		}
	}

	hasAppend, hasFrames := false, false
	var marshaled, unmarshaled []*types.Named
	var sites []token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeFunc(c.pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		switch {
		case analysis.PkgPathMatches(fn.Pkg().Path(), checkpointPkgs) && fn.Name() == "AppendFrame":
			hasAppend = true
		case analysis.PkgPathMatches(fn.Pkg().Path(), checkpointPkgs) && (fn.Name() == "Frames" || fn.Name() == "NextFrame"):
			hasFrames = true
		case fn.Pkg().Path() == "encoding/json" && (fn.Name() == "Marshal" || fn.Name() == "MarshalIndent") && len(call.Args) >= 1:
			if n := c.namedStructInPkg(c.pass.TypeOf(call.Args[0])); n != nil {
				marshaled = append(marshaled, n)
				sites = append(sites, call.Pos())
			}
		case fn.Pkg().Path() == "encoding/json" && fn.Name() == "Unmarshal" && len(call.Args) >= 2:
			if n := c.namedStructInPkg(c.pass.TypeOf(call.Args[1])); n != nil {
				unmarshaled = append(unmarshaled, n)
				sites = append(sites, call.Pos())
			}
		}
		return true
	})
	if hasAppend {
		for _, n := range marshaled {
			c.addRoot(n, fd.Pos(), true, false)
		}
	}
	if hasFrames {
		for _, n := range unmarshaled {
			c.addRoot(n, fd.Pos(), false, true)
		}
	}
}

func (c *checker) addRoot(n *types.Named, pos token.Pos, enc, dec bool) {
	if _, ok := c.roots[n]; !ok {
		c.roots[n] = pos
	}
	if enc {
		c.encode[n] = true
	}
	if dec {
		c.decode[n] = true
	}
}

// namedStructInPkg unwraps pointers and reports t as a struct type declared
// in the package under analysis, or nil.
func (c *checker) namedStructInPkg(t types.Type) *types.Named {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() != c.pass.Pkg {
		return nil
	}
	if _, ok := n.Underlying().(*types.Struct); !ok {
		return nil
	}
	return n
}

// hasCustomCodec reports whether T (or *T) implements its own JSON or text
// (un)marshaling — its unexported fields are its own business.
func hasCustomCodec(n *types.Named) bool {
	ms := types.NewMethodSet(types.NewPointer(n))
	for _, m := range []string{"MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText"} {
		if ms.Lookup(nil, m) != nil {
			return true
		}
	}
	return false
}

// jsonName returns the effective wire name of the field and whether the field
// is skipped outright.
func jsonName(f *types.Var, rawTag string) (name string, skipped bool) {
	tag := reflect.StructTag(rawTag).Get("json")
	if tag == "" {
		return f.Name(), false
	}
	base := tag
	if i := strings.IndexByte(tag, ','); i >= 0 {
		base = tag[:i]
	}
	if base == "-" && !strings.Contains(tag, ",") {
		return "", true
	}
	if base == "" {
		return f.Name(), false
	}
	return base, false
}

// walkStruct checks one struct's field hygiene and recurses through struct
// fields. path names the access chain for diagnostics; anchor is where to
// report findings on types declared outside the package.
func (c *checker) walkStruct(n *types.Named, path string, anchor token.Pos) {
	if c.visited[n] || hasCustomCodec(n) {
		return
	}
	c.visited[n] = true
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		return
	}
	seen := map[string]string{} // wire name -> field label
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		label := path + "." + f.Name()
		pos := anchor
		if p, ok := c.fldPos[f]; ok {
			pos = p
		}
		if !f.Exported() {
			c.pass.Reportf(pos, "unexported field %s in snapshot type %s: encoding/json drops it silently, so this state does not survive a restart", label, path)
			continue
		}
		name, skipped := jsonName(f, st.Tag(i))
		if skipped {
			c.pass.Reportf(pos, "field %s in snapshot type %s is tagged json:\"-\" and vanishes from the snapshot", label, path)
			continue
		}
		if prev, dup := seen[name]; dup {
			c.pass.Reportf(pos, "duplicate json name %q in snapshot type %s (%s and %s): decode keeps only one", name, path, prev, label)
		} else {
			seen[name] = label
		}
		if elem := structElem(f.Type()); elem != nil {
			c.walkStruct(elem, label, pos)
		}
	}
}

// structElem unwraps pointers, slices, arrays, and map values down to a named
// struct type, or nil.
func structElem(t types.Type) *types.Named {
	for {
		switch x := t.(type) {
		case *types.Pointer:
			t = x.Elem()
		case *types.Slice:
			t = x.Elem()
		case *types.Array:
			t = x.Elem()
		case *types.Map:
			t = x.Elem()
		default:
			if n, ok := t.(*types.Named); ok {
				if _, isStruct := n.Underlying().(*types.Struct); isStruct {
					return n
				}
			}
			return nil
		}
	}
}

// checkConsumed enforces restore symmetry on an unexported root with both
// flows visible: every surviving field must be read somewhere in the package,
// or the encode side is writing state nothing ever restores.
func (c *checker) checkConsumed(n *types.Named) {
	st := n.Underlying().(*types.Struct)
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !f.Exported() {
			continue // already reported by walkStruct
		}
		if _, skipped := jsonName(f, st.Tag(i)); skipped {
			continue
		}
		if !c.reads[f] {
			pos := n.Obj().Pos()
			if p, ok := c.fldPos[f]; ok {
				pos = p
			}
			c.pass.Reportf(pos, "field %s.%s is encoded into the snapshot but never read after decode: encode/decode asymmetry (drop it or consume it on restore)", n.Obj().Name(), f.Name())
		}
	}
}
