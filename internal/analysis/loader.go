package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package bundles everything a Pass needs about one loaded package.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// NewPass pairs a loaded package with an analyzer, ready to Run.
func (p *Package) NewPass(a *Analyzer) *Pass {
	pass := &Pass{
		Analyzer:  a,
		Fset:      p.Fset,
		Files:     p.Files,
		Pkg:       p.Pkg,
		TypesInfo: p.Info,
	}
	for _, f := range p.Files {
		if strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		pass.Source = append(pass.Source, f)
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
					pass.Funcs = append(pass.Funcs, &Func{Decl: fd, Obj: obj})
				}
			}
		}
	}
	return pass
}

// newInfo allocates a fully-populated types.Info.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// typeCheck runs the type checker over parsed files.
func typeCheck(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := newInfo()
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", "amd64"),
	}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}

// srcImporter resolves imports for fixture packages: paths that exist under
// root (a testdata/src directory) are loaded from source recursively; anything
// else falls back to the standard-library importer.
type srcImporter struct {
	root  string
	fset  *token.FileSet
	std   types.Importer
	cache map[string]*types.Package
}

func newSrcImporter(root string, fset *token.FileSet) *srcImporter {
	return &srcImporter{
		root:  root,
		fset:  fset,
		std:   importer.Default(),
		cache: map[string]*types.Package{},
	}
}

func (si *srcImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := si.cache[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(si.root, filepath.FromSlash(path))
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		files, err := parseDir(si.fset, dir)
		if err != nil {
			return nil, err
		}
		pkg, _, err := typeCheck(si.fset, path, files, si)
		if err != nil {
			return nil, err
		}
		si.cache[path] = pkg
		return pkg, nil
	}
	pkg, err := si.std.Import(path)
	if err != nil {
		return nil, err
	}
	si.cache[path] = pkg
	return pkg, nil
}

// parseDir parses every non-test .go file in dir, with comments.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	files := make([]*ast.File, 0, len(names))
	for _, n := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// LoadFixture loads and type-checks the fixture package at root/<path>, where
// root is an analyzer's testdata/src directory. Imports of sibling fixture
// packages resolve from source; standard-library imports resolve via the
// toolchain's export data.
func LoadFixture(root, path string) (*Package, error) {
	fset := token.NewFileSet()
	files, err := parseDir(fset, filepath.Join(root, filepath.FromSlash(path)))
	if err != nil {
		return nil, err
	}
	imp := newSrcImporter(root, fset)
	info := newInfo()
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", "amd64"),
	}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &Package{Fset: fset, Files: files, Pkg: pkg, Info: info}, nil
}
