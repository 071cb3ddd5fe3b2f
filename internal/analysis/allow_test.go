package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseAllows(t *testing.T) {
	cases := []struct {
		text string
		want []AllowDirective
	}{
		{
			"//mdes:allow(noalloc) heap fallback",
			[]AllowDirective{{Analyzer: "noalloc", Reason: "heap fallback"}},
		},
		{
			// Two directives sharing one comment, each claiming its own reason.
			"//mdes:allow(noalloc) heap fallback //mdes:allow(detrand) seeded locally",
			[]AllowDirective{
				{Analyzer: "noalloc", Reason: "heap fallback"},
				{Analyzer: "detrand", Reason: "seeded locally"},
			},
		},
		{
			// A reason that merely mentions the marker mid-text does not start
			// a new directive chain from prose.
			"// Suppress a finding with //mdes:allow(<analyzer>) <reason>.",
			nil,
		},
		{"//mdes:allow()", nil},
		{"//mdes:allow(unclosed", nil},
		{"//mdes:allow(two words) reason", nil},
		{"// plain comment", nil},
		{
			"//mdes:allow(lockcall)",
			[]AllowDirective{{Analyzer: "lockcall", Reason: ""}},
		},
	}
	for _, c := range cases {
		got := ParseAllows(c.text)
		if len(got) != len(c.want) {
			t.Errorf("ParseAllows(%q) = %v, want %v", c.text, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("ParseAllows(%q)[%d] = %+v, want %+v", c.text, i, got[i], c.want[i])
			}
		}
	}
}

// passFor builds a Pass over one parsed source string for suppression tests.
func passFor(t *testing.T, name string, src string) (*Pass, *token.FileSet, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "case_"+name+".go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	pass := &Pass{
		Analyzer: &Analyzer{Name: "noalloc"},
		Fset:     fset,
		Files:    []*ast.File{f},
	}
	return pass, fset, f
}

// lineStart returns the position of the first statement-ish token on the
// given 1-based line.
func posOnLine(fset *token.FileSet, f *ast.File, line int) token.Pos {
	var found token.Pos
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || found != token.NoPos {
			return false
		}
		if fset.Position(n.Pos()).Line == line {
			found = n.Pos()
			return false
		}
		return true
	})
	return found
}

func TestWaiverSuppressesAttachedStatementOnly(t *testing.T) {
	src := `package p

func f() *int {
	//mdes:allow(noalloc) covers only the next statement
	x := new(int)
	_ = x
	y := new(int)
	return y
}
`
	pass, fset, file := passFor(t, "attach", src)
	covered := posOnLine(fset, file, 5)   // x := new(int), line below the waiver
	uncovered := posOnLine(fset, file, 7) // y := new(int), two lines further

	pass.Reportf(covered, "allocation on the waived line")
	if n := len(pass.Diagnostics()); n != 0 {
		t.Fatalf("diagnostic on the waived statement was not suppressed (%d reported)", n)
	}
	pass.Reportf(uncovered, "allocation past the waiver")
	if n := len(pass.Diagnostics()); n != 1 {
		t.Fatalf("waiver on line 4 leaked to line 7: got %d diagnostics, want 1", n)
	}
}

func TestWaiverForOtherAnalyzerDoesNotSuppress(t *testing.T) {
	src := `package p

func f() *int {
	//mdes:allow(detrand) wrong analyzer for this finding
	return new(int)
}
`
	pass, fset, file := passFor(t, "other", src)
	pass.Reportf(posOnLine(fset, file, 5), "allocation")
	if n := len(pass.Diagnostics()); n != 1 {
		t.Fatalf("a detrand waiver suppressed a noalloc diagnostic (%d reported)", n)
	}
}

func TestMultiDirectiveWaiverSuppressesBothAnalyzers(t *testing.T) {
	src := `package p

func f() *int {
	//mdes:allow(noalloc) fallback //mdes:allow(detrand) seeded
	return new(int)
}
`
	for _, name := range []string{"noalloc", "detrand"} {
		pass, fset, file := passFor(t, "multi_"+name, src)
		pass.Analyzer = &Analyzer{Name: name}
		pass.Reportf(posOnLine(fset, file, 5), "finding")
		if n := len(pass.Diagnostics()); n != 0 {
			t.Errorf("multi-directive waiver did not suppress %s (%d reported)", name, n)
		}
	}
	pass, fset, file := passFor(t, "multi_miss", src)
	pass.Analyzer = &Analyzer{Name: "lockcall"}
	pass.Reportf(posOnLine(fset, file, 5), "finding")
	if n := len(pass.Diagnostics()); n != 1 {
		t.Errorf("multi-directive waiver over-suppressed an unnamed analyzer (%d reported)", n)
	}
}

// TestStaleAllows: a waiver that suppressed a finding is used; one whose
// statement drew no finding is stale, reported at its directive.
func TestStaleAllows(t *testing.T) {
	src := `package p

func f() *int {
	//mdes:allow(noalloc) covers a finding
	x := new(int)
	_ = x
	//mdes:allow(noalloc) covers nothing any more
	y := 0
	return &y
}
`
	pass, fset, file := passFor(t, "stale", src)
	pass.Reportf(posOnLine(fset, file, 5), "allocation")
	stale := pass.StaleAllows()
	if len(stale) != 1 || fset.Position(stale[0]).Line != 7 {
		t.Fatalf("stale waivers at %v, want exactly the one on line 7", stale)
	}
	if n := len(pass.Diagnostics()); n != 0 {
		t.Fatalf("the used waiver did not suppress its finding (%d reported)", n)
	}

	// A pass that reports nothing leaves both stale; another analyzer's
	// waivers are none of its business.
	pass, _, _ = passFor(t, "stale_all", src)
	if stale := pass.StaleAllows(); len(stale) != 2 {
		t.Fatalf("%d stale waivers with no findings, want 2", len(stale))
	}
	pass, _, _ = passFor(t, "stale_other", src)
	pass.Analyzer = &Analyzer{Name: "detrand"}
	if stale := pass.StaleAllows(); len(stale) != 0 {
		t.Fatalf("detrand pass reports noalloc waivers stale: %v", stale)
	}
}

func TestScanWaivers(t *testing.T) {
	known := map[string]bool{"noalloc": true, "detrand": true}
	write := func(t *testing.T, dir, name, src string) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("collects and sorts", func(t *testing.T) {
		dir := t.TempDir()
		write(t, dir, "b.go", "package p\n\nfunc g() {\n\t//mdes:allow(detrand) reason b\n}\n")
		write(t, dir, "a.go", "package p\n\nfunc f() {\n\t//mdes:allow(noalloc) reason a\n}\n")
		// Waivers in test files, testdata, and string literals do not count.
		write(t, dir, "a_test.go", "package p\n\nfunc h() {\n\t//mdes:allow(noalloc) in a test file\n}\n")
		write(t, dir, "testdata/fix.go", "package q\n\nfunc i() {\n\t//mdes:allow(noalloc) in testdata\n}\n")
		write(t, dir, "c.go", "package p\n\nvar s = \"//mdes:allow(noalloc) in a string\"\n")
		ws, err := ScanWaivers(dir, known)
		if err != nil {
			t.Fatal(err)
		}
		if len(ws) != 2 || ws[0].File != "a.go" || ws[0].Analyzer != "noalloc" || ws[1].File != "b.go" || ws[1].Analyzer != "detrand" {
			t.Fatalf("unexpected waivers: %+v", ws)
		}
	})

	t.Run("unknown analyzer errors", func(t *testing.T) {
		dir := t.TempDir()
		write(t, dir, "a.go", "package p\n\nfunc f() {\n\t//mdes:allow(bogus) typo\n}\n")
		if _, err := ScanWaivers(dir, known); err == nil || !strings.Contains(err.Error(), `unknown analyzer "bogus"`) {
			t.Fatalf("want unknown-analyzer error, got %v", err)
		}
	})

	t.Run("empty reason errors", func(t *testing.T) {
		dir := t.TempDir()
		write(t, dir, "a.go", "package p\n\nfunc f() {\n\t//mdes:allow(noalloc)\n}\n")
		if _, err := ScanWaivers(dir, known); err == nil || !strings.Contains(err.Error(), "no reason") {
			t.Fatalf("want empty-reason error, got %v", err)
		}
	})
}
