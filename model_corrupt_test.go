package mdes

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// mutateModelJSON round-trips a saved model through raw JSON, letting a test
// corrupt one top-level field the way a truncated or hand-edited file would.
func mutateModelJSON(t *testing.T, m *Model, mutate func(map[string]json.RawMessage)) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	mutate(raw)
	out, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewBuffer(out)
}

// TestLoadRejectsMissingConfig is the divide-by-zero regression: a model
// file with a missing (zero) config used to Load fine, and the first
// Stream.Push then panicked with an integer divide by zero because the
// sentence stride computed from the zero language config was 0. Load must
// reject the file instead.
func TestLoadRejectsMissingConfig(t *testing.T) {
	model := trainTiny(t)

	// Positive control: the unmodified file loads, and its stream pushes.
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := good.NewStream().Push(map[string]string{"a": "ON", "b": "ON", "c": "ON"}); err != nil {
		t.Fatalf("control stream push: %v", err)
	}

	corrupted := mutateModelJSON(t, model, func(raw map[string]json.RawMessage) {
		delete(raw, "config")
	})
	if _, err := Load(corrupted); !errors.Is(err, ErrCorruptModel) {
		t.Fatalf("config-less model: err = %v, want ErrCorruptModel", err)
	}
}

// TestLoadRejectsDanglingReferences covers edges and pairs that name sensors
// with no language — undetectable before, then a nil-map lookup or encode
// failure deep inside detection.
func TestLoadRejectsDanglingReferences(t *testing.T) {
	model := trainTiny(t)

	missingLang := mutateModelJSON(t, model, func(raw map[string]json.RawMessage) {
		var langs map[string]json.RawMessage
		if err := json.Unmarshal(raw["languages"], &langs); err != nil {
			t.Fatal(err)
		}
		delete(langs, "a")
		out, err := json.Marshal(langs)
		if err != nil {
			t.Fatal(err)
		}
		raw["languages"] = out
	})
	if _, err := Load(missingLang); !errors.Is(err, ErrCorruptModel) {
		t.Fatalf("dangling edge: err = %v, want ErrCorruptModel", err)
	}

	ghostPair := mutateModelJSON(t, model, func(raw map[string]json.RawMessage) {
		var pairs map[string]json.RawMessage
		if err := json.Unmarshal(raw["pairs"], &pairs); err != nil {
			t.Fatal(err)
		}
		var any json.RawMessage
		for _, st := range pairs {
			any = st
			break
		}
		pairs["ghost\x1fa"] = any
		out, err := json.Marshal(pairs)
		if err != nil {
			t.Fatal(err)
		}
		raw["pairs"] = out
	})
	if _, err := Load(ghostPair); !errors.Is(err, ErrCorruptModel) {
		t.Fatalf("ghost pair: err = %v, want ErrCorruptModel", err)
	}
}

// TestLoadRejectsOversizedAlphabet guards the loader against a persisted
// alphabet larger than the byte-rank encryption can represent: NewStream
// would rebuild a rank table with wrapped, colliding characters.
func TestLoadRejectsOversizedAlphabet(t *testing.T) {
	model := trainTiny(t)
	oversized := mutateModelJSON(t, model, func(raw map[string]json.RawMessage) {
		var langs map[string]json.RawMessage
		if err := json.Unmarshal(raw["languages"], &langs); err != nil {
			t.Fatal(err)
		}
		var pl map[string]json.RawMessage
		if err := json.Unmarshal(langs["a"], &pl); err != nil {
			t.Fatal(err)
		}
		wide := make([]string, 200)
		for i := range wide {
			wide[i] = string(rune('A' + i))
		}
		out, err := json.Marshal(wide)
		if err != nil {
			t.Fatal(err)
		}
		pl["alphabet"] = out
		if langs["a"], err = json.Marshal(pl); err != nil {
			t.Fatal(err)
		}
		if raw["languages"], err = json.Marshal(langs); err != nil {
			t.Fatal(err)
		}
	})
	if _, err := Load(oversized); !errors.Is(err, ErrCorruptModel) {
		t.Fatalf("oversized alphabet: err = %v, want ErrCorruptModel", err)
	}
}

// TestLoadRejectsMalformedPairKey keeps the pre-existing malformed-key check
// matchable via ErrCorruptModel.
func TestLoadRejectsMalformedPairKey(t *testing.T) {
	model := trainTiny(t)
	malformed := mutateModelJSON(t, model, func(raw map[string]json.RawMessage) {
		var pairs map[string]json.RawMessage
		if err := json.Unmarshal(raw["pairs"], &pairs); err != nil {
			t.Fatal(err)
		}
		var any json.RawMessage
		for _, st := range pairs {
			any = st
			break
		}
		pairs["nosep"] = any
		out, err := json.Marshal(pairs)
		if err != nil {
			t.Fatal(err)
		}
		raw["pairs"] = out
	})
	if _, err := Load(malformed); !errors.Is(err, ErrCorruptModel) {
		t.Fatalf("malformed pair key: err = %v, want ErrCorruptModel", err)
	}
}

// withQuant replaces the quant section of a quantized model's save file with
// the given JSON; an empty string deletes the section.
func withQuant(t *testing.T, m *Model, section string) *bytes.Buffer {
	t.Helper()
	return mutateModelJSON(t, m, func(raw map[string]json.RawMessage) {
		if section == "" {
			delete(raw, "quant")
			return
		}
		raw["quant"] = json.RawMessage(section)
	})
}

// TestLoadRejectsCorruptQuantSection covers the published-model failure
// modes. The quant section records one thing, the precision to freeze the
// float64 pair weights at, so the only way to corrupt it is a precision the
// engine cannot serve: Load must fail with ErrCorruptModel rather than fall
// back to some other precision silently.
func TestLoadRejectsCorruptQuantSection(t *testing.T) {
	model := trainTiny(t)
	if err := model.Quantize(PrecisionInt8); err != nil {
		t.Fatal(err)
	}
	defer model.Quantize(PrecisionF64)

	// Positive control: the untouched quantized file loads at int8.
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if good.ScorePrecision() != PrecisionInt8 {
		t.Fatalf("control precision = %v, want int8", good.ScorePrecision())
	}

	// A file written before the frozen weights stopped being persisted carries
	// them under quant.pairs. The key is no longer decoded — whatever it holds,
	// here a ghost pair at another precision — and the file loads through the
	// same path: at the recorded precision, detecting bit for bit like the
	// file without it.
	legacy, err := Load(withQuant(t, model,
		`{"precision":"int8","pairs":{"ghost\u001fa":{"precision":"f32","tensors":[{"name":"src_emb","rows":1,"cols":1,"f32":[0]}]}}}`))
	if err != nil {
		t.Fatalf("file with a legacy quant.pairs object failed to load: %v", err)
	}
	if legacy.ScorePrecision() != PrecisionInt8 {
		t.Fatalf("legacy file precision = %v, want int8", legacy.ScorePrecision())
	}
	ds := coupledDataset(rand.New(rand.NewSource(5)), 200)
	want, err := good.Detect(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := legacy.Detect(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("legacy file detects %d points, control %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("point %d: legacy file scores %v, control %v", i, got[i].Score, want[i].Score)
		}
	}

	for name, prec := range map[string]string{
		"unknown precision": "f16",
		"f64 precision":     "f64",
		"empty precision":   "",
	} {
		t.Run(name, func(t *testing.T) {
			corrupted := withQuant(t, model, fmt.Sprintf(`{"precision":%q}`, prec))
			if _, err := Load(corrupted); !errors.Is(err, ErrCorruptModel) {
				t.Fatalf("err = %v, want ErrCorruptModel", err)
			}
		})
	}

	// Deleting the whole section is not corruption: the float64 weights are
	// intact, so the model loads and scores at f64.
	plain, err := Load(withQuant(t, model, ""))
	if err != nil {
		t.Fatalf("quant-stripped model failed to load: %v", err)
	}
	if plain.ScorePrecision() != PrecisionF64 {
		t.Fatalf("quant-stripped precision = %v, want f64", plain.ScorePrecision())
	}
}
