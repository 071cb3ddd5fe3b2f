package main

import (
	"context"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mdes"
	"mdes/internal/seqio"
)

// toyDataset is two coupled ON/OFF sensors, 400 ticks: the toy model's
// training log, and the traffic the end-to-end test replays.
func toyDataset() *seqio.Dataset {
	rng := rand.New(rand.NewSource(3))
	ticks := 400
	a := make([]string, ticks)
	b := make([]string, ticks)
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
	}
	return &seqio.Dataset{Sequences: []seqio.Sequence{
		{Sensor: "a", Events: a}, {Sensor: "b", Events: b},
	}}
}

// saveToyModel trains and saves a minimal model for the command's tests.
func saveToyModel(t *testing.T, path string) {
	t.Helper()
	train, dev, _, err := toyDataset().Split(280, 120)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := mdes.New(mdes.Config{
		Language: mdes.LanguageConfig{WordLen: 3, WordStride: 1, SentenceLen: 4, SentenceStride: 4},
		NMT: mdes.NMTConfig{
			Embed: 12, Hidden: 12, Layers: 1,
			LearningRate: 5e-3, ClipNorm: 5,
			TrainSteps: 40, BatchSize: 8, MaxDecodeLen: 8,
		},
		ValidRange:      mdes.Range{Lo: 0, Hi: 100},
		PopularInDegree: 5,
		Seed:            2,
	})
	if err != nil {
		t.Fatal(err)
	}
	model, err := fw.Train(context.Background(), train, dev)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := model.Save(f); err != nil {
		t.Fatal(err)
	}
}

func TestParseModels(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "toy.json")
	saveToyModel(t, path)

	// Bare path registers as "default".
	models, err := parseModels([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := models["default"]; !ok || len(models) != 1 {
		t.Fatalf("bare path: %v", models)
	}

	// name=path registers under name; several can coexist.
	models, err = parseModels([]string{"plant=" + path, "hdd=" + path})
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 2 || models["plant"] == nil || models["hdd"] == nil {
		t.Fatalf("named models: %v", models)
	}
}

func TestParseModelsErrors(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "toy.json")
	saveToyModel(t, path)

	cases := []struct {
		specs []string
		want  string
	}{
		{nil, "at least one -model"},
		{[]string{path, "default=" + path}, "duplicate model name"},
		{[]string{"=" + path}, "bad -model"},
		{[]string{"name="}, "bad -model"},
		{[]string{filepath.Join(dir, "missing.json")}, "no such file"},
	}
	for _, c := range cases {
		_, err := parseModels(c.specs)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("specs %v: err %v, want %q", c.specs, err, c.want)
		}
	}

	// A file that is not a model must fail with context.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := parseModels([]string{"b=" + bad}); err == nil || !strings.Contains(err.Error(), `model "b"`) {
		t.Fatalf("garbage model: %v", err)
	}
}

// TestScorePrecisionFlag checks the -score-precision wiring: an invalid value
// fails fast, before any listener binds.
func TestScorePrecisionFlag(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "toy.json")
	saveToyModel(t, path)
	err := run(context.Background(), []string{"-model", path, "-score-precision", "f16"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "unknown precision") {
		t.Fatalf("err = %v, want unknown precision", err)
	}
}
