package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildVet compiles the mdes-vet binary into a temp dir and returns its path.
func buildVet(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "mdes-vet")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building mdes-vet: %v\n%s", err, out)
	}
	return bin
}

// writeModule materialises a throwaway module with the given files.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module sandbox\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// runVet invokes `go vet -vettool=bin ./...` inside dir.
func runVet(t *testing.T, bin, dir string) (string, error) {
	t.Helper()
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// TestVetFailsOnDeliberateViolations is the CI contract: introducing a
// violation of any enforced invariant must fail `go vet -vettool=mdes-vet`.
func TestVetFailsOnDeliberateViolations(t *testing.T) {
	bin := buildVet(t)
	dir := writeModule(t, map[string]string{
		"bad.go": `package sandbox

import "os"

// Hot allocates despite its annotation.
//
//mdes:noalloc
func Hot(n int) []int {
	return make([]int, n)
}

// TrainAll loops without a context.
func TrainAll(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// Persist drops the Close error on a write path.
func Persist(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		return err
	}
	f.Close()
	return nil
}
`,
	})

	out, err := runVet(t, bin, dir)
	if err == nil {
		t.Fatalf("go vet succeeded on a module with deliberate violations; output:\n%s", out)
	}
	for _, want := range []string{
		"make allocates in noalloc function Hot",
		"exported TrainAll contains loops but has no context.Context parameter",
		"error from Close is discarded",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("vet output missing %q; got:\n%s", want, out)
		}
	}
}

// TestVetFailsOnConcurrencyViolations covers the cluster-era analyzers:
// lock-order cycles (in a package matching lockorder's scope), unbounded
// goroutines, leaked tickers, and snapshot asymmetry.
func TestVetFailsOnConcurrencyViolations(t *testing.T) {
	bin := buildVet(t)
	dir := writeModule(t, map[string]string{
		"internal/serve/locks.go": `package serve

import "sync"

type ring struct{ mu sync.Mutex }
type member struct{ mu sync.Mutex }

func one(x *ring, y *member) {
	x.mu.Lock()
	defer x.mu.Unlock()
	y.mu.Lock()
	defer y.mu.Unlock()
}

func two(x *ring, y *member) {
	y.mu.Lock()
	defer y.mu.Unlock()
	x.mu.Lock()
	defer x.mu.Unlock()
}
`,
		"bad.go": `package sandbox

import "time"

func spin() {
	for {
	}
}

func Start() {
	go spin()
}

func tickLoop(d time.Duration) {
	t := time.NewTicker(d)
	for range t.C {
	}
}

type snap struct {
	Ticks int ` + "`json:\"ticks\"`" + `
	cur   int
}

type counter struct{ n int }

func (c *counter) Snapshot() snap { return snap{Ticks: c.n} }
`,
	})

	out, err := runVet(t, bin, dir)
	if err == nil {
		t.Fatalf("go vet succeeded on a module with concurrency violations; output:\n%s", out)
	}
	for _, want := range []string{
		"forms a lock-order cycle",
		"goroutine has no visible bounded lifecycle",
		"time.NewTicker is not stopped on every exit path",
		"unexported field snap.cur in snapshot type snap",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("vet output missing %q; got:\n%s", want, out)
		}
	}
}

// TestVetJSONDiagnostics checks the -json artifact mode: standalone mdes-vet
// must still fail the run and additionally write one JSON object per finding.
func TestVetJSONDiagnostics(t *testing.T) {
	bin := buildVet(t)
	dir := writeModule(t, map[string]string{
		"bad.go": `package sandbox

//mdes:noalloc
func Hot() map[string]int {
	return map[string]int{}
}
`,
	})
	jsonPath := filepath.Join(dir, "diags.json")
	cmd := exec.Command(bin, "-json", jsonPath, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("mdes-vet -json succeeded on a violating module:\n%s", out)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("reading -json output: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatalf("-json output is empty; stderr:\n%s", out)
	}
	var d struct {
		Package  string `json:"package"`
		File     string `json:"file"`
		Line     int    `json:"line"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &d); err != nil {
		t.Fatalf("-json line is not valid JSON: %v\n%s", err, lines[0])
	}
	if d.Analyzer != "noalloc" || d.Line == 0 || !strings.Contains(d.Message, "map literal allocates") {
		t.Errorf("unexpected JSON diagnostic: %+v", d)
	}
}

// TestVetJSONNeedsPattern checks that -json without a file does not swallow
// the package pattern: `mdes-vet -json ./...` must fail rather than vet only
// the module root, where this module has no violation.
func TestVetJSONNeedsPattern(t *testing.T) {
	bin := buildVet(t)
	dir := writeModule(t, map[string]string{
		"root.go": "package sandbox\n",
		"sub/bad.go": `package sub

//mdes:noalloc
func Hot() map[string]int {
	return map[string]int{}
}
`,
	})
	cmd := exec.Command(bin, "-json", "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("mdes-vet -json ./... succeeded on a module with a violation in a subpackage:\n%s", out)
	}
	if !strings.Contains(string(out), "usage:") {
		t.Errorf("mdes-vet -json ./... did not print the usage; got:\n%s", out)
	}
}

// TestWaiverBudget exercises the -waivers subcommand: a matching budget
// passes, drift fails with a diff, and -update-waivers regenerates the file.
func TestWaiverBudget(t *testing.T) {
	bin := buildVet(t)
	dir := writeModule(t, map[string]string{
		"good.go": `package sandbox

//mdes:noalloc
func Waived() *int {
	//mdes:allow(noalloc) budget fixture
	return new(int)
}
`,
	})
	run := func(args ...string) (string, error) {
		cmd := exec.Command(bin, args...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		return string(out), err
	}

	// No budget file yet: the check must fail, not silently pass.
	if out, err := run("-waivers", "WAIVERS"); err == nil {
		t.Fatalf("-waivers succeeded without a budget file:\n%s", out)
	}
	if out, err := run("-waivers", "WAIVERS", "-update-waivers"); err != nil {
		t.Fatalf("-update-waivers failed: %v\n%s", err, out)
	}
	budget, err := os.ReadFile(filepath.Join(dir, "WAIVERS"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(budget), "good.go:noalloc") {
		t.Fatalf("regenerated budget missing the waiver:\n%s", budget)
	}
	if out, err := run("-waivers", "WAIVERS"); err != nil {
		t.Fatalf("-waivers failed against a fresh budget: %v\n%s", err, out)
	}

	// Growing the waiver population without touching the budget is drift.
	more := `package sandbox

//mdes:noalloc
func WaivedToo() *int {
	//mdes:allow(noalloc) a second, unbudgeted waiver
	return new(int)
}
`
	if err := os.WriteFile(filepath.Join(dir, "more.go"), []byte(more), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := run("-waivers", "WAIVERS")
	if err == nil {
		t.Fatalf("-waivers passed despite an unbudgeted waiver:\n%s", out)
	}
	if !strings.Contains(out, "more.go:noalloc") || !strings.Contains(out, "drift") {
		t.Errorf("drift output should name the new waiver; got:\n%s", out)
	}
}

// TestUnknownAnalyzerWaiver: a waiver naming a nonexistent analyzer is a
// diagnostic (vet) and an error (budget scan) — a typo must not silently
// disable a suppression.
func TestUnknownAnalyzerWaiver(t *testing.T) {
	bin := buildVet(t)
	dir := writeModule(t, map[string]string{
		"typo.go": `package sandbox

func Fine() int {
	//mdes:allow(noallocc) typo'd analyzer name
	return 0
}
`,
	})
	out, err := runVet(t, bin, dir)
	if err == nil {
		t.Fatalf("go vet passed a waiver naming an unknown analyzer:\n%s", out)
	}
	if !strings.Contains(out, `unknown analyzer "noallocc"`) {
		t.Errorf("vet output missing the unknown-analyzer diagnostic; got:\n%s", out)
	}
	cmd := exec.Command(bin, "-waivers", "WAIVERS", "-update-waivers")
	cmd.Dir = dir
	out2, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("-update-waivers accepted an unknown analyzer:\n%s", out2)
	}
	if !strings.Contains(string(out2), `unknown analyzer "noallocc"`) {
		t.Errorf("budget scan missing the unknown-analyzer error; got:\n%s", out2)
	}
}

// TestVetPassesOnCleanModule proves zero false positives on compliant code,
// including a waived finding.
func TestVetPassesOnCleanModule(t *testing.T) {
	bin := buildVet(t)
	dir := writeModule(t, map[string]string{
		"good.go": `package sandbox

import (
	"context"
	"os"
)

// Hot reuses its caller's buffer.
//
//mdes:noalloc
func Hot(dst []int, n int) []int {
	out := dst[:0]
	for i := 0; i < n; i++ {
		out = append(out, i)
	}
	return out
}

// TrainAll is cancellable.
func TrainAll(ctx context.Context, xs []int) (int, error) {
	total := 0
	for _, x := range xs {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		total += x
	}
	return total, nil
}

// ReadAll closes best-effort on a read path, explicitly.
func ReadAll(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	data := make([]byte, 16)
	n, err := f.Read(data)
	_ = f.Close()
	if err != nil {
		return nil, err
	}
	return data[:n], nil
}

// Waived documents why its annotated violation is fine.
//
//mdes:noalloc
func Waived() *int {
	//mdes:allow(noalloc) demonstration waiver for the clean-module fixture
	return new(int)
}
`,
	})

	out, err := runVet(t, bin, dir)
	if err != nil {
		t.Fatalf("go vet failed on a clean module: %v\n%s", err, out)
	}
}

// TestVetSelfCheck runs the suite over this repository itself: the tree must
// stay diagnostic-free, which is the other half of the CI contract.
func TestVetSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("self-check typechecks every package; skipped in -short")
	}
	bin := buildVet(t)
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = "../.." // repo root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("mdes-vet reports diagnostics on the tree: %v\n%s", err, out)
	}
}

// TestStandaloneMode checks the re-exec path: `mdes-vet ./...` drives go vet
// itself and propagates the failure exit.
func TestStandaloneMode(t *testing.T) {
	bin := buildVet(t)
	dir := writeModule(t, map[string]string{
		"bad.go": `package sandbox

//mdes:noalloc
func Hot() map[string]int {
	return map[string]int{}
}
`,
	})
	cmd := exec.Command(bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("standalone mdes-vet succeeded on a violating module:\n%s", out)
	}
	if !strings.Contains(string(out), "map literal allocates in noalloc function Hot") {
		t.Errorf("standalone output missing the diagnostic; got:\n%s", out)
	}
}
