package nmt

import (
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"mdes/internal/mat"
)

// weightChecksum hashes every parameter tensor's exact float64 bit patterns
// in sorted-key order, so two models compare equal only if every weight is
// bit-identical.
func weightChecksum(t *testing.T, m *Model) uint64 {
	t.Helper()
	st := m.State()
	keys := make([]string, 0, len(st.Weights))
	for k := range st.Weights {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	var buf [8]byte
	for _, k := range keys {
		_, _ = h.Write([]byte(k))
		for _, w := range st.Weights[k] {
			bits := math.Float64bits(w)
			for i := range buf {
				buf[i] = byte(bits >> (8 * i))
			}
			_, _ = h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// TestTrainPairBitwiseDeterminism is the repo's determinism contract in
// executable form: training the same pair twice at the same seed must give
// bit-identical BLEU and bit-identical weights — not "close", identical.
// §III-B's relationship graph is built from these BLEU edges, so any
// nondeterminism here (map-iteration accumulation order, a stray global RNG,
// a data race under the -race CI run) silently reshapes the graph. The
// detrand analyzer forbids those constructs statically; this test catches
// whatever slips past it.
func TestTrainPairBitwiseDeterminism(t *testing.T) {
	src, tgt := goldenCorpus()
	data := PairData{
		Src: "s1", Tgt: "s2",
		TrainSrc: src[:16], TrainTgt: tgt[:16],
		DevSrc: src[16:], DevTgt: tgt[16:],
		SrcVocab: 8, TgtVocab: 8,
	}
	cfg := Config{
		Embed: 8, Hidden: 8, Layers: 2, Dropout: 0.2,
		LearningRate: 5e-3, ClipNorm: 5,
		TrainSteps: 30, BatchSize: 8, MaxDecodeLen: 12,
	}

	const seed = 7
	a := TrainPair(cfg, data, seed)
	b := TrainPair(cfg, data, seed)
	if a.Err != nil || b.Err != nil {
		t.Fatalf("training failed: %v / %v", a.Err, b.Err)
	}

	if ab, bb := math.Float64bits(a.BLEU), math.Float64bits(b.BLEU); ab != bb {
		t.Errorf("BLEU not bit-identical across runs: %v (0x%016x) vs %v (0x%016x)",
			a.BLEU, ab, b.BLEU, bb)
	}
	if ac, bc := weightChecksum(t, a.Model), weightChecksum(t, b.Model); ac != bc {
		t.Errorf("weight checksums differ across runs: 0x%016x vs 0x%016x", ac, bc)
	}

	// A different seed must actually change the weights — otherwise the
	// checksum comparison above would pass vacuously.
	c := TrainPair(cfg, data, seed+1)
	if c.Err != nil {
		t.Fatalf("training failed: %v", c.Err)
	}
	if weightChecksum(t, a.Model) == weightChecksum(t, c.Model) {
		t.Error("different seeds produced identical weight checksums; checksum is not sensitive to weights")
	}
}

// TestTrainPairSIMDInvariant is the float64 AVX kernels' contract at the
// level that matters: a pair trained and scored with them has the same BLEU
// bits and the same weights, bit for bit, as one trained with the portable
// loops. Two layers with dropout exercise the masked inter-layer inputs
// (exact zeros: the kernels' skip paths), and Embed 10 leaves a column
// remainder beside the vectors of four.
func TestTrainPairSIMDInvariant(t *testing.T) {
	prev := mat.SetSIMD(true)
	defer mat.SetSIMD(prev)
	if !mat.SIMDEnabled() {
		t.Skip("no AVX kernels on this machine")
	}
	src, tgt := goldenCorpus()
	data := PairData{
		Src: "s1", Tgt: "s2",
		TrainSrc: src[:16], TrainTgt: tgt[:16],
		DevSrc: src[16:], DevTgt: tgt[16:],
		SrcVocab: 8, TgtVocab: 8,
	}
	for _, cfg := range []Config{
		{Embed: 10, Hidden: 12, Layers: 2, Dropout: 0.2},
		{Embed: 16, Hidden: 16, Layers: 2, Dropout: 0.2},
	} {
		cfg.LearningRate, cfg.ClipNorm = 5e-3, 5
		cfg.TrainSteps, cfg.BatchSize, cfg.MaxDecodeLen = 30, 8, 12

		mat.SetSIMD(true)
		simd := TrainPair(cfg, data, 7)
		mat.SetSIMD(false)
		portable := TrainPair(cfg, data, 7)
		if simd.Err != nil || portable.Err != nil {
			t.Fatalf("training failed: %v / %v", simd.Err, portable.Err)
		}
		if a, b := math.Float64bits(simd.BLEU), math.Float64bits(portable.BLEU); a != b {
			t.Errorf("hidden %d: BLEU differs, AVX %v (0x%016x) vs portable %v (0x%016x)",
				cfg.Hidden, simd.BLEU, a, portable.BLEU, b)
		}
		if a, b := weightChecksum(t, simd.Model), weightChecksum(t, portable.Model); a != b {
			t.Errorf("hidden %d: weight checksums differ, AVX 0x%016x vs portable 0x%016x", cfg.Hidden, a, b)
		}
	}
}
