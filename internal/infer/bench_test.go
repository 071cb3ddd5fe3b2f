package infer

import (
	"math/rand"
	"testing"

	"mdes/internal/nmt"
)

// benchState builds a serving-scale model (default config dimensions) whose
// EOS logit is pushed far down, forcing every decode to run the full
// MaxDecodeLen steps — equal decode work at every precision, so the
// benchmark compares kernels rather than luck with early stopping.
func benchState(tb testing.TB) nmt.State {
	cfg := nmt.Config{
		SrcVocab: 64, TgtVocab: 64,
		Embed: 64, Hidden: 64, Layers: 2, Dropout: 0,
		LearningRate: 1e-3, ClipNorm: 5,
		TrainSteps: 1, BatchSize: 1, MaxDecodeLen: 24,
	}
	m, err := nmt.NewModel(cfg, 17)
	if err != nil {
		tb.Fatal(err)
	}
	st := m.State()
	for i := range st.Weights["out.b"] {
		if i == nmt.EosID {
			st.Weights["out.b"][i] = -100
		}
	}
	return st
}

func benchCorpus(n, length, vocab int) (srcs, refs [][]int) {
	rng := rand.New(rand.NewSource(29))
	srcs = make([][]int, n)
	refs = make([][]int, n)
	for i := range srcs {
		s := make([]int, length)
		r := make([]int, length)
		for j := range s {
			s[j] = 3 + rng.Intn(vocab-3)
			r[j] = 3 + rng.Intn(vocab-3)
		}
		srcs[i], refs[i] = s, r
	}
	return srcs, refs
}

const benchBatch = 64

// BenchmarkScoreSentenceF64 is the pre-batching baseline: the float64
// training model scoring one sentence at a time (caching off — distinct
// sentences, as in anomaly scoring of novel windows).
func BenchmarkScoreSentenceF64(b *testing.B) {
	m, err := nmt.LoadModel(benchState(b))
	if err != nil {
		b.Fatal(err)
	}
	m.SetTranslationCaching(false)
	srcs, refs := benchCorpus(benchBatch, 12, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range srcs {
			nmt.ScoreSentence(m, srcs[j], refs[j])
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchBatch), "ns/sentence")
}

func benchScoreBatch(b *testing.B, prec Precision) {
	m, err := FromState(benchState(b), prec)
	if err != nil {
		b.Fatal(err)
	}
	m.SetTranslationCaching(false)
	srcs, refs := benchCorpus(benchBatch, 12, 64)
	out := make([]float64, len(srcs))
	m.ScoreBatch(srcs, refs, out) // warm the pooled workspace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ScoreBatch(srcs, refs, out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchBatch), "ns/sentence")
}

// BenchmarkScoreBatch measures batched GEMM scoring at each inference
// precision; compare ns/sentence against BenchmarkScoreSentenceF64 for the
// headline speedup (CI's score-bench job runs both).
func BenchmarkScoreBatch(b *testing.B) {
	b.Run("f32", func(b *testing.B) { benchScoreBatch(b, F32) })
	b.Run("int8", func(b *testing.B) { benchScoreBatch(b, Int8) })
}

// BenchmarkScoreSentence measures one relationship score the way a stream
// pays for it on a translation-cache miss: a batch of one, caching off. The
// bench-shape case is the serving benchmark's pair model (bench/gen.go:
// hidden = embed = 16, one layer, 13-token sentences, MaxDecodeLen 15) at
// V = 19, under the f32 input-table break-even (V ≤ 21), with EOS pushed down
// so every decode runs all 15 steps.
func BenchmarkScoreSentence(b *testing.B) {
	b.Run("bench-shape", func(b *testing.B) {
		cfg := nmt.Config{
			SrcVocab: 19, TgtVocab: 19,
			Embed: 16, Hidden: 16, Layers: 1,
			LearningRate: 1e-3, ClipNorm: 5,
			TrainSteps: 1, BatchSize: 1, MaxDecodeLen: 15,
		}
		nm, err := nmt.NewModel(cfg, 17)
		if err != nil {
			b.Fatal(err)
		}
		st := nm.State()
		st.Weights["out.b"][nmt.EosID] = -100
		m, err := FromState(st, F32)
		if err != nil {
			b.Fatal(err)
		}
		m.SetTranslationCaching(false)
		srcs, refs := benchCorpus(benchBatch, 13, 19)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			scoreSink += m.ScoreSentence(srcs[i%benchBatch], refs[i%benchBatch])
		}
	})
}

var scoreSink float64

// BenchmarkModelMemory reports resident model bytes per precision as metrics
// (the ~4× reduction claim); the benchmark body does no work.
func BenchmarkModelMemory(b *testing.B) {
	st := benchState(b)
	var f64Bytes int
	for _, w := range st.Weights {
		f64Bytes += 8 * len(w)
	}
	f32m, err := FromState(st, F32)
	if err != nil {
		b.Fatal(err)
	}
	q8m, err := FromState(st, Int8)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
	}
	b.ReportMetric(float64(f64Bytes), "f64_bytes")
	b.ReportMetric(float64(f32m.MemoryBytes()), "f32_bytes")
	b.ReportMetric(float64(q8m.MemoryBytes()), "int8_bytes")
	b.ReportMetric(float64(f64Bytes)/float64(q8m.MemoryBytes()), "int8_compression_x")
}
