package analysis

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// jsonEnv carries the -json output path from the standalone front-end into
// the per-package vettool invocations cmd/go spawns.
const jsonEnv = "MDES_VET_JSON"

// JSONDiagnostic is one finding in the machine-readable -json output: one
// JSON object per line, appended per analyzed package.
type JSONDiagnostic struct {
	Package  string `json:"package"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// vetConfig mirrors the JSON configuration cmd/go writes for each package
// when driving a -vettool (see cmd/go/internal/work's vetConfig). Only the
// fields the driver consumes are declared.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	GoVersion                 string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// Main is the entry point for a vettool binary. It implements the cmd/go
// protocol (the -V=full and -flags handshakes, then one invocation per
// package with a vet.cfg path) and additionally supports a standalone mode:
// invoked with package patterns instead of a .cfg file, it re-executes
// `go vet -vettool=<self> <patterns>` so cmd/go handles package loading.
func Main(name string, analyzers ...*Analyzer) {
	args := os.Args[1:]
	for _, a := range args {
		switch a {
		case "-V=full", "--V=full":
			// cmd/go stamps the tool into its build cache key using this
			// line; the token after "version" must not be "devel". Hashing
			// our own executable means rebuilding mdes-vet invalidates
			// cached vet results.
			fmt.Printf("%s version v1-%s\n", name, selfHash())
			return
		case "-flags", "--flags":
			// No tool-specific flags: report an empty JSON flag set.
			fmt.Println("[]")
			return
		}
	}
	if len(args) > 0 && strings.HasSuffix(args[len(args)-1], ".cfg") {
		diags, err := runConfig(args[len(args)-1], analyzers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		if diags > 0 {
			os.Exit(2)
		}
		return
	}
	if len(args) == 0 || args[0] == "help" || args[0] == "-h" || args[0] == "--help" {
		usage(name, analyzers)
		if len(args) == 0 {
			os.Exit(2)
		}
		return
	}
	// Standalone mode: parse front-end flags, then let `go vet` load the
	// packages and call us back per package.
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	fs.Usage = func() { usage(name, analyzers) }
	jsonOut := fs.String("json", "", "also write diagnostics as JSON lines to this `file`")
	budget := fs.String("waivers", "", "check //mdes:allow waivers against this budget `file` and exit")
	update := fs.Bool("update-waivers", false, "with -waivers: rewrite the budget file from the tree instead of checking")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	if *budget != "" {
		if err := waiverBudget(".", *budget, *update, known); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(2)
		}
		return
	}
	// Without a pattern go vet checks only ".", so a pattern taken as a flag
	// value (`-json ./...`) must not pass as a vet of the tree.
	if fs.NArg() == 0 {
		usage(name, analyzers)
		os.Exit(2)
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: cannot locate own executable: %v\n", name, err)
		os.Exit(1)
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + self}, fs.Args()...)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	cmd.Stdin = os.Stdin
	if *jsonOut != "" {
		abs, err := filepath.Abs(*jsonOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		// Start fresh; the per-package invocations append.
		if err := os.WriteFile(abs, nil, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		cmd.Env = append(os.Environ(), jsonEnv+"="+abs)
	}
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			os.Exit(ee.ExitCode())
		}
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		os.Exit(1)
	}
}

// waiverBudget implements the -waivers subcommand: scan the module rooted at
// root and either check against or regenerate the budget file.
func waiverBudget(root, budgetFile string, update bool, known map[string]bool) error {
	if update {
		ws, err := ScanWaivers(root, known)
		if err != nil {
			return err
		}
		return os.WriteFile(budgetFile, FormatWaivers(ws), 0o666)
	}
	return CheckWaivers(root, budgetFile, known)
}

func usage(name string, analyzers []*Analyzer) {
	fmt.Fprintf(os.Stderr, "%s: static analyzers for the mdes repository\n\n", name)
	fmt.Fprintf(os.Stderr, "usage:\n")
	fmt.Fprintf(os.Stderr, "  %s [-json file] ./...        # standalone (drives go vet)\n", name)
	fmt.Fprintf(os.Stderr, "  go vet -vettool=%s ./...     # as a vet tool\n\n", name)
	fmt.Fprintf(os.Stderr, "analyzers:\n")
	for _, a := range analyzers {
		doc := a.Doc
		if i := strings.IndexByte(doc, '\n'); i >= 0 {
			doc = doc[:i]
		}
		fmt.Fprintf(os.Stderr, "  %-10s %s\n", a.Name, doc)
	}
	fmt.Fprintf(os.Stderr, "\nsuppress a finding in place with: //mdes:allow(<analyzer>) <reason>\n")
}

// selfHash returns a short content hash of the running executable.
func selfHash() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown0000000000"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown0000000000"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown0000000000"
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// runConfig analyzes the single package described by the vet.cfg file and
// prints diagnostics to stderr, returning how many were reported.
func runConfig(cfgFile string, analyzers []*Analyzer) (int, error) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		return 0, err
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return 0, fmt.Errorf("parsing %s: %w", cfgFile, err)
	}
	// cmd/go requires the facts ("vetx") output to exist for caching even
	// though this suite exchanges no facts between packages.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte("mdes-vet: no facts\n"), 0o666); err != nil {
			return 0, err
		}
	}
	if cfg.VetxOnly {
		// Dependency-only invocation: nothing to analyze.
		return 0, nil
	}

	fset := token.NewFileSet()
	parsed, err := parseFiles(fset, cfg.GoFiles)
	if err != nil {
		return 0, err
	}
	pkg, info, err := typeCheckConfig(fset, &cfg, parsed)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0, nil
		}
		return 0, fmt.Errorf("typechecking %s: %w", cfg.ImportPath, err)
	}

	loaded := &Package{Fset: fset, Files: parsed, Pkg: pkg, Info: info}
	total := 0
	var jsonDiags []JSONDiagnostic
	emit := func(analyzer string, pos token.Pos, msg string) {
		p := fset.Position(pos)
		fmt.Fprintf(os.Stderr, "%s: %s [%s]\n", p, msg, analyzer)
		jsonDiags = append(jsonDiags, JSONDiagnostic{
			Package: cfg.ImportPath, File: p.Filename, Line: p.Line, Col: p.Column,
			Analyzer: analyzer, Message: msg,
		})
		total++
	}
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
		pass := loaded.NewPass(a)
		if err := a.Run(pass); err != nil {
			return total, fmt.Errorf("analyzer %s on %s: %w", a.Name, cfg.ImportPath, err)
		}
		for _, d := range pass.Diagnostics() {
			emit(a.Name, d.Pos, d.Message)
		}
		// A waiver that suppresses nothing outlived its finding: the code
		// moved, or the analyzer learned better. Left in place it would
		// silently cover whatever lands on its line next.
		for _, pos := range pass.StaleAllows() {
			emit("mdes-vet", pos, fmt.Sprintf("//mdes:allow(%s) suppresses no %s finding; delete it", a.Name, a.Name))
		}
	}
	// A waiver naming an analyzer that does not exist suppresses nothing and
	// usually means a typo silently disabled a real waiver — that is itself a
	// finding, not a no-op.
	for _, f := range parsed {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, d := range ParseAllows(c.Text) {
					if !known[d.Analyzer] {
						emit("mdes-vet", c.Pos(), fmt.Sprintf("//mdes:allow names unknown analyzer %q", d.Analyzer))
					}
				}
			}
		}
	}
	if total > 0 {
		if err := appendJSON(jsonDiags); err != nil {
			return total, err
		}
	}
	return total, nil
}

// appendJSON appends diagnostics to the file named by MDES_VET_JSON, one JSON
// object per line. The per-package vettool processes cmd/go spawns may run
// concurrently, so each package's lines are written with a single O_APPEND
// write.
func appendJSON(diags []JSONDiagnostic) error {
	path := os.Getenv(jsonEnv)
	if path == "" || len(diags) == 0 {
		return nil
	}
	var buf []byte
	for _, d := range diags {
		line, err := json.Marshal(d)
		if err != nil {
			return err
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o666)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	return f.Close()
}

func parseFiles(fset *token.FileSet, paths []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(paths))
	for _, p := range paths {
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// cfgImporter resolves imports through the vet.cfg's ImportMap and
// PackageFile tables using the toolchain's gc export-data reader.
type cfgImporter struct {
	cfg  *vetConfig
	base types.ImporterFrom
}

func (ci *cfgImporter) Import(path string) (*types.Package, error) {
	return ci.ImportFrom(path, "", 0)
}

func (ci *cfgImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if mapped, ok := ci.cfg.ImportMap[path]; ok {
		path = mapped
	}
	return ci.base.ImportFrom(path, ci.cfg.Dir, 0)
}

func typeCheckConfig(fset *token.FileSet, cfg *vetConfig, files []*ast.File) (*types.Package, *types.Info, error) {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	base, ok := importer.ForCompiler(fset, "gc", lookup).(types.ImporterFrom)
	if !ok {
		return nil, nil, fmt.Errorf("gc importer does not implement ImporterFrom")
	}
	info := newInfo()
	conf := types.Config{
		Importer:  &cfgImporter{cfg: cfg, base: base},
		Sizes:     types.SizesFor("gc", "amd64"),
		GoVersion: cfg.GoVersion,
	}
	pkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}
