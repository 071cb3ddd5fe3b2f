package main

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mdes"
	"mdes/internal/seqio"
)

// writeToyLog writes a small CSV log with two coupled sensors and one noise
// sensor.
func writeToyLog(t *testing.T, path string, ticks int) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	a := make([]string, ticks)
	b := make([]string, ticks)
	c := make([]string, ticks)
	state := "ON"
	for i := 0; i < ticks; i++ {
		if rng.Float64() < 0.15 {
			if state == "ON" {
				state = "OFF"
			} else {
				state = "ON"
			}
		}
		a[i] = state
		b[i] = state
		if rng.Float64() < 0.5 {
			c[i] = "HI"
		} else {
			c[i] = "LO"
		}
	}
	ds := &seqio.Dataset{Sequences: []seqio.Sequence{
		{Sensor: "a", Events: a}, {Sensor: "b", Events: b}, {Sensor: "c", Events: c},
	}}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := ds.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
}

func TestTrainRoundTrip(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "log.csv")
	modelPath := filepath.Join(dir, "model.json")
	writeToyLog(t, logPath, 420)

	var out bytes.Buffer
	err := run([]string{
		"-in", logPath, "-train-ticks", "300", "-dev-ticks", "120",
		"-word", "3", "-sentence", "4", "-sentence-stride", "4",
		"-hidden", "12", "-layers", "1", "-steps", "60",
		"-valid-lo", "0", "-valid-hi", "100",
		"-model", modelPath,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "trained 3 sensors (6 pair models") {
		t.Fatalf("unexpected output: %s", out.String())
	}
	if fi, err := os.Stat(modelPath); err != nil || fi.Size() == 0 {
		t.Fatalf("model file missing: %v", err)
	}
}

// TestTrainCheckpointResume exercises the CLI journal flow: a checkpointed
// run, then a -resume rerun that restores every pair and writes a model with
// identical graph edges.
func TestTrainCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "log.csv")
	ckptPath := filepath.Join(dir, "train.journal")
	writeToyLog(t, logPath, 420)

	common := []string{
		"-in", logPath, "-train-ticks", "300", "-dev-ticks", "120",
		"-word", "3", "-sentence", "4", "-sentence-stride", "4",
		"-hidden", "12", "-layers", "1", "-steps", "60",
		"-valid-lo", "0", "-valid-hi", "100",
		"-checkpoint", ckptPath, "-progress-every", "0s",
	}

	var out1 bytes.Buffer
	model1 := filepath.Join(dir, "m1.json")
	if err := run(append(common, "-model", model1), &out1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out1.String(), "pairs 6/6") {
		t.Fatalf("no progress lines in output: %s", out1.String())
	}

	// Re-running against a populated journal without -resume must refuse.
	var out2 bytes.Buffer
	if err := run(append(common, "-model", model1), &out2); err == nil {
		t.Fatal("populated journal without -resume accepted")
	}

	// -resume restores all six pairs and produces identical edges.
	var out3 bytes.Buffer
	model2 := filepath.Join(dir, "m2.json")
	if err := run(append(common, "-resume", "-model", model2), &out3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out3.String(), "resumed 6/6 pairs from checkpoint") {
		t.Fatalf("resume report missing: %s", out3.String())
	}
	g1, g2 := loadEdges(t, model1), loadEdges(t, model2)
	if len(g1) != len(g2) {
		t.Fatalf("edge counts differ: %d vs %d", len(g1), len(g2))
	}
	for k, s := range g1 {
		if g2[k] != s {
			t.Fatalf("edge %v: resumed %v vs original %v", k, g2[k], s)
		}
	}
}

func loadEdges(t *testing.T, path string) map[[2]string]float64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := mdes.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[[2]string]float64)
	for _, e := range m.Graph().Edges() {
		out[[2]string{e.Src, e.Tgt}] = e.Score
	}
	return out
}

// TestTrainProfileFlags runs a tiny training job with -cpuprofile and
// -memprofile and checks both files come out non-empty (pprof's gzip header
// alone is a few dozen bytes; a missing StopCPUProfile would leave zero).
func TestTrainProfileFlags(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "log.csv")
	cpuPath := filepath.Join(dir, "cpu.pprof")
	memPath := filepath.Join(dir, "mem.pprof")
	writeToyLog(t, logPath, 420)

	var out bytes.Buffer
	err := run([]string{
		"-in", logPath, "-train-ticks", "300", "-dev-ticks", "120",
		"-word", "3", "-sentence", "4", "-sentence-stride", "4",
		"-hidden", "12", "-layers", "1", "-steps", "20",
		"-valid-lo", "0", "-valid-hi", "100",
		"-model", filepath.Join(dir, "model.json"),
		"-cpuprofile", cpuPath, "-memprofile", memPath,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpuPath, memPath} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not written: %v", p, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}

func TestTrainUsageErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Fatal("missing -in accepted")
	}
	if err := run([]string{"-in", "x.csv"}, &out); err == nil {
		t.Fatal("missing ticks accepted")
	}
	if err := run([]string{"-in", "/no/such/file.csv", "-train-ticks", "10", "-dev-ticks", "5"}, &out); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestTrainScreenFlags drives the -screen-topk path end to end: the run must
// train only the selected pairs, report the selection on stdout, and persist
// the decision in the saved model.
func TestTrainScreenFlags(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "log.csv")
	modelPath := filepath.Join(dir, "model.json")
	writeToyLog(t, logPath, 420)

	var out bytes.Buffer
	err := run([]string{
		"-in", logPath, "-train-ticks", "300", "-dev-ticks", "120",
		"-word", "3", "-sentence", "4", "-sentence-stride", "4",
		"-hidden", "12", "-layers", "1", "-steps", "60",
		"-valid-lo", "0", "-valid-hi", "100",
		"-screen-topk", "2",
		"-model", modelPath,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "screening selected 2 of 6 pairs (4 skipped") {
		t.Fatalf("missing screening line in output: %s", out.String())
	}
	// Only the 2 sensors of the selected pairs appear in the graph.
	if !strings.Contains(out.String(), "trained 2 sensors (2 pair models") {
		t.Fatalf("unexpected training summary: %s", out.String())
	}

	f, err := os.Open(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	model, err := mdes.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	if s := model.Screen(); !s.Enabled || s.Selected != 2 || s.Skipped != 4 {
		t.Fatalf("persisted screen summary = %+v, want 2 selected / 4 skipped", s)
	}
}

// TestTrainScreenFlagValidation: a nonsensical screening threshold must fail
// before any training starts.
func TestTrainScreenFlagValidation(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "log.csv")
	writeToyLog(t, logPath, 420)
	err := run([]string{
		"-in", logPath, "-train-ticks", "300", "-dev-ticks", "120",
		"-screen-threshold", "1.5",
		"-model", filepath.Join(dir, "model.json"),
	}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "threshold") {
		t.Fatalf("err = %v, want screening threshold validation error", err)
	}
}

// TestProgressClockResumeETAAnchor is the resume-skew regression: a journal
// replay that takes minutes must not inflate the per-pair estimate. With 5
// pairs restored over 10 minutes and one pair live-trained in 50ms after
// the resume report, the remaining 4 pairs project from the resume anchor
// (sub-second ETA), not from the 10-minute-old start.
func TestProgressClockResumeETAAnchor(t *testing.T) {
	start := time.Now()
	c := newProgressClock(start)
	resumed := start.Add(10 * time.Minute) // replay and restore time
	c.resumed(resumed, 5)
	elapsed, eta := c.times(resumed.Add(50*time.Millisecond), 6, 10)
	if eta != 200*time.Millisecond {
		t.Fatalf("ETA = %v, want 4 pairs at 50ms from the resume anchor", eta)
	}
	if elapsed < 10*time.Minute {
		t.Fatalf("elapsed = %v; wall-clock elapsed must still include replay time", elapsed)
	}
}

// TestProgressClockETAWithoutResume: with no resume report, the rate runs
// from the start, and no ETA shows before the first pair or after the last.
func TestProgressClockETAWithoutResume(t *testing.T) {
	start := time.Now()
	c := newProgressClock(start)
	if _, eta := c.times(start.Add(time.Second), 0, 4); eta != 0 {
		t.Fatalf("ETA = %v before any pair trained, want 0", eta)
	}
	if _, eta := c.times(start.Add(3*time.Second), 2, 4); eta != 3*time.Second {
		t.Fatalf("ETA = %v, want 3s: 2 pairs left at 1.5s each", eta)
	}
	if _, eta := c.times(start.Add(6*time.Second), 4, 4); eta != 0 {
		t.Fatalf("ETA = %v with every pair done, want 0", eta)
	}
}
