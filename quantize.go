package mdes

import (
	"fmt"

	"mdes/internal/infer"
)

// Precision selects the numeric path pair models score with. Training is
// always float64; PrecisionF32 and PrecisionInt8 activate the batched
// reduced-precision inference engine (internal/infer) built by Quantize.
type Precision = infer.Precision

// The scoring precisions. PrecisionF64 is the zero value: the float64
// training weights score directly, exactly as the paper's reference path.
const (
	PrecisionF64  = infer.F64
	PrecisionF32  = infer.F32
	PrecisionInt8 = infer.Int8
)

// ParsePrecision parses a -score-precision style flag value ("f64", "f32",
// "int8" and common aliases).
func ParsePrecision(s string) (Precision, error) { return infer.ParsePrecision(s) }

// Quantize freezes every pair model into reduced-precision inference weights
// at precision p — the publish step of the f64-train/f32-serve boundary. The
// float64 training weights stay untouched (and keep serving as the reference
// path); scoring entry points (ScoreJob.Run, TestScores, Detect, streams) use
// the frozen weights until Quantize is called again. PrecisionF64 drops the
// frozen weights and restores pure float64 scoring.
//
// Quantize is not safe to call concurrently with scoring; publish before
// serving traffic.
func (m *Model) Quantize(p Precision) error {
	m.quantized++
	if p == PrecisionF64 {
		m.infPairs = nil
		m.prec = PrecisionF64
		return nil
	}
	infs := make(map[[2]string]*infer.Model, len(m.pairs))
	for key, pm := range m.pairs {
		im, err := infer.FromState(pm.State(), p)
		if err != nil {
			return fmt.Errorf("mdes: quantize pair %s->%s: %w", key[0], key[1], err)
		}
		infs[key] = im
	}
	m.infPairs = infs
	m.prec = p
	return nil
}

// ScorePrecision reports the active scoring precision.
func (m *Model) ScorePrecision() Precision { return m.prec }

// PairModelBytes reports the resident weight memory of all pair models at the
// active scoring precision — the per-tenant cost of keeping this model
// servable. Float64 counts the training weights. Quantized precisions count
// what infer.Model.MemoryBytes counts instead: the frozen weights, with a
// stack's input table in place of the embedding and layer-0 Wx it replaced.
// The float64 weights stay resident beside them (Quantize and Save read
// them) and are not counted.
func (m *Model) PairModelBytes() int64 {
	var total int64
	if m.prec != PrecisionF64 {
		for _, im := range m.infPairs {
			total += int64(im.MemoryBytes())
		}
		return total
	}
	for _, pm := range m.pairs {
		total += int64(pm.ParamCount()) * 8
	}
	return total
}

// SetTranslationCaching toggles every pair model's translation cache and
// score memo — float64 and, if Quantize has run, frozen (caching is on by
// default, and back on for the weights a later Quantize freezes). Turning it
// off drops everything cached and makes every scoring call decode and score
// from scratch: the reference that memoised scoring is compared with, bit for
// bit. Not safe to call concurrently with Quantize.
func (m *Model) SetTranslationCaching(on bool) {
	for _, pm := range m.pairs {
		pm.SetTranslationCaching(on)
	}
	for _, im := range m.infPairs {
		im.SetTranslationCaching(on)
	}
}

// inferFor returns the frozen inference model for a pair, or nil when scoring
// runs at float64.
func (m *Model) inferFor(key [2]string) *infer.Model { return m.infPairs[key] }
