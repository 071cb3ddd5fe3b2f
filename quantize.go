package mdes

import (
	"fmt"

	"mdes/internal/infer"
)

// Precision selects the numeric format pair models score at. Training is
// always float64; Quantize builds the scoring engines (internal/infer) at a
// precision.
type Precision = infer.Precision

// The scoring precisions. PrecisionF64 is the zero value and the default:
// the float64 training weights score directly, the paper's reference path.
const (
	PrecisionF64  = infer.F64
	PrecisionF32  = infer.F32
	PrecisionInt8 = infer.Int8
)

// ParsePrecision parses a -score-precision style flag value ("f64", "f32",
// "int8" and common aliases).
func ParsePrecision(s string) (Precision, error) { return infer.ParsePrecision(s) }

// Quantize builds every pair model's scoring engine at precision p — the
// publish step of the f64-train/f32-serve boundary, which Train and Load end
// with at PrecisionF64 (or a loaded model's saved precision). PrecisionF64
// serves the float64 training models themselves; PrecisionF32 and
// PrecisionInt8 freeze their weights. The training weights stay untouched;
// every scoring entry point (ScoreJob.Run, TestScores, Detect, streams) uses
// the engines of the latest Quantize.
//
// Quantize is not safe to call concurrently with scoring; publish before
// serving traffic.
func (m *Model) Quantize(p Precision) error {
	m.quantized++
	engines := make(map[[2]string]*infer.Model, len(m.pairs))
	for key, pm := range m.pairs {
		if p == PrecisionF64 {
			engines[key] = infer.FromModel(pm)
			continue
		}
		im, err := infer.FromState(pm.State(), p)
		if err != nil {
			return fmt.Errorf("mdes: quantize pair %s->%s: %w", key[0], key[1], err)
		}
		engines[key] = im
	}
	m.engines = engines
	m.prec = p
	return nil
}

// ScorePrecision reports the active scoring precision.
func (m *Model) ScorePrecision() Precision { return m.prec }

// PairModelBytes reports the resident weight memory of all pair models at the
// active scoring precision — the per-tenant cost of keeping this model
// servable: what infer.Model.MemoryBytes counts. Float64 counts the float64
// weights, all a trained or loaded pair model keeps besides its translation
// cache: no gradients or optimiser moments survive training. Quantized
// precisions count the frozen weights, with a stack's
// input table in place of the embedding and layer-0 Wx it replaced; the
// float64 weights stay resident beside them (Quantize and Save read them)
// and are not counted.
func (m *Model) PairModelBytes() int64 {
	var total int64
	for _, im := range m.engines {
		total += int64(im.MemoryBytes())
	}
	return total
}

// SetTranslationCaching toggles every pair model's translation cache and
// score memo: the training models' (which F64 engines share) and the frozen
// engines'. Caching is on by default, and on for the engines a later
// reduced-precision Quantize freezes. Turning it off drops everything cached
// and makes every scoring call decode and score from scratch: the reference
// that memoised scoring is compared with, bit for bit. Not safe to call
// concurrently with Quantize.
func (m *Model) SetTranslationCaching(on bool) {
	for _, pm := range m.pairs {
		pm.SetTranslationCaching(on)
	}
	for _, im := range m.engines {
		im.SetTranslationCaching(on)
	}
}
