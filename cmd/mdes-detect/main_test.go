package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mdes"
	"mdes/internal/experiments"
	"mdes/internal/seqio"
	"mdes/internal/serve"
)

// trainToyModel trains a tiny model in-process and saves it where the CLI
// can load it.
func trainToyModel(t *testing.T, dir string) (modelPath, testCSV string) {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	gen := func(ticks int, decoupleFrom int) *seqio.Dataset {
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
			if decoupleFrom >= 0 && i >= decoupleFrom {
				if rng.Float64() < 0.5 {
					b[i] = "ON"
				} else {
					b[i] = "OFF"
				}
			}
		}
		return &seqio.Dataset{Sequences: []seqio.Sequence{
			{Sensor: "a", Events: a}, {Sensor: "b", Events: b},
		}}
	}
	full := gen(400, -1)
	train, dev, _, err := full.Split(280, 120)
	if err != nil {
		t.Fatal(err)
	}
	cfg := mdes.Config{
		Language: mdes.LanguageConfig{WordLen: 3, WordStride: 1, SentenceLen: 4, SentenceStride: 4},
		NMT: mdes.NMTConfig{
			Embed: 12, Hidden: 12, Layers: 1,
			LearningRate: 5e-3, ClipNorm: 5,
			TrainSteps: 80, BatchSize: 8, MaxDecodeLen: 8,
		},
		ValidRange:      mdes.Range{Lo: 0, Hi: 100},
		PopularInDegree: 5,
		Seed:            2,
	}
	fw, err := mdes.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	model, err := fw.Train(context.Background(), train, dev)
	if err != nil {
		t.Fatal(err)
	}
	modelPath = filepath.Join(dir, "model.json")
	mf, err := os.Create(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := model.Save(mf); err != nil {
		t.Fatal(err)
	}
	mf.Close()

	testCSV = filepath.Join(dir, "test.csv")
	tf, err := os.Create(testCSV)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	if err := gen(200, 100).WriteCSV(tf); err != nil {
		t.Fatal(err)
	}
	return modelPath, testCSV
}

func TestDetectEndToEnd(t *testing.T) {
	dir := t.TempDir()
	modelPath, testCSV := trainToyModel(t, dir)
	var out bytes.Buffer
	err := run([]string{"-model", modelPath, "-in", testCSV, "-threshold", "0.5", "-alerts"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "a_t=") {
		t.Fatalf("no anomaly scores printed:\n%s", text)
	}
	// The decoupled second half should trigger at least one flagged line
	// and a fault diagnosis.
	if !strings.Contains(text, "!") {
		t.Fatalf("no timestamp flagged:\n%s", text)
	}
	if !strings.Contains(text, "fault diagnosis") {
		t.Fatalf("no diagnosis printed:\n%s", text)
	}
}

func TestDetectErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Fatal("missing -in accepted")
	}
	if err := run([]string{"-in", "x.csv", "-model", "/no/such/model.json"}, &out); err == nil {
		t.Fatal("missing model accepted")
	}
}

func TestDetectJSONFormatAndStdin(t *testing.T) {
	dir := t.TempDir()
	modelPath, testCSV := trainToyModel(t, dir)

	var fileOut bytes.Buffer
	if err := run([]string{"-model", modelPath, "-in", testCSV, "-format", "json"}, &fileOut); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(fileOut.String()), "\n")
	if len(lines) == 0 {
		t.Fatal("json format emitted nothing")
	}
	var flagged bool
	for i, line := range lines {
		var p struct {
			T     int     `json:"t"`
			Score float64 `json:"score"`
			Valid int     `json:"valid"`
		}
		if err := json.Unmarshal([]byte(line), &p); err != nil {
			t.Fatalf("line %d not JSON: %v\n%s", i, err, line)
		}
		if p.T != i {
			t.Fatalf("line %d has t=%d", i, p.T)
		}
		if p.Score > 0 {
			flagged = true
		}
	}
	if !flagged {
		t.Fatal("decoupled test log produced no nonzero scores")
	}

	// -in - reads the CSV from stdin: same input must yield the same output.
	csvBytes, err := os.ReadFile(testCSV)
	if err != nil {
		t.Fatal(err)
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	origStdin := os.Stdin
	os.Stdin = pr
	defer func() { os.Stdin = origStdin }()
	go func() {
		pw.Write(csvBytes)
		pw.Close()
	}()
	var stdinOut bytes.Buffer
	if err := run([]string{"-model", modelPath, "-in", "-", "-format", "json"}, &stdinOut); err != nil {
		t.Fatal(err)
	}
	if stdinOut.String() != fileOut.String() {
		t.Fatal("stdin run differs from file run")
	}
}

func TestDetectRejectsUnknownFormat(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-in", "x.csv", "-format", "xml"}, &out); err == nil ||
		!strings.Contains(err.Error(), "-format") {
		t.Fatalf("bad -format accepted: %v", err)
	}
}

// TestDetectJSONIsEncodingJSON pins -format json to the bytes encoding/json
// writes for the same points, on the quick plant's test split: real scores,
// and anomalous days whose points carry broken relationships.
func TestDetectJSONIsEncodingJSON(t *testing.T) {
	plant, err := experiments.QuickPlant()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	modelPath, testCSV := filepath.Join(dir, "model.json"), filepath.Join(dir, "test.csv")
	for path, write := range map[string]func(*os.File) error{
		modelPath: func(f *os.File) error { return plant.Model.Save(f) },
		testCSV:   func(f *os.File) error { return plant.Tst.WriteCSV(f) },
	} {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := write(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	var got bytes.Buffer
	if err := run([]string{"-model", modelPath, "-in", testCSV, "-format", "json"}, &got); err != nil {
		t.Fatal(err)
	}

	mf, err := os.Open(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	model, err := mdes.Load(mf)
	mf.Close()
	if err != nil {
		t.Fatal(err)
	}
	tf, err := os.Open(testCSV)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := seqio.ReadCSV(tf)
	tf.Close()
	if err != nil {
		t.Fatal(err)
	}
	points, err := model.Detect(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	broken := 0
	for _, p := range points {
		if err := enc.Encode(serve.PointWire(p)); err != nil {
			t.Fatal(err)
		}
		broken += len(p.Broken)
	}
	if broken == 0 {
		t.Fatal("no point carries a broken relationship")
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("-format json differs from encoding/json:\n%s\nwant\n%s", got.Bytes(), want.Bytes())
	}
}
