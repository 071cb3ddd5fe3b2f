package nmt

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"
)

func cacheTestModel(t testing.TB) (*Model, [][]int, [][]int) {
	t.Helper()
	src, tgt := goldenCorpus()
	cfg := Config{
		SrcVocab: 8, TgtVocab: 8,
		Embed: 12, Hidden: 12, Layers: 1,
		LearningRate: 5e-3, ClipNorm: 5,
		TrainSteps: 40, BatchSize: 8, MaxDecodeLen: 12,
	}
	m, err := NewModel(cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Train(src[:16], tgt[:16]); err != nil {
		t.Fatal(err)
	}
	return m, src, tgt
}

// TestScoreCorpusCachedMatchesUncached is the behaviour-preservation check for
// the translation cache: greedy decoding is deterministic, so memoising it
// must not move corpus BLEU by a single bit. The dev corpus deliberately
// repeats sentences so the cached run actually takes the hit path.
func TestScoreCorpusCachedMatchesUncached(t *testing.T) {
	m, src, tgt := cacheTestModel(t)

	// Duplicate the dev split several times so cache hits dominate.
	var devSrc, devTgt [][]int
	for rep := 0; rep < 3; rep++ {
		devSrc = append(devSrc, src[16:]...)
		devTgt = append(devTgt, tgt[16:]...)
	}

	cached, err := ScoreCorpus(context.Background(), m, devSrc, devTgt)
	if err != nil {
		t.Fatal(err)
	}

	m.SetTranslationCaching(false)
	uncached, err := ScoreCorpus(context.Background(), m, devSrc, devTgt)
	if err != nil {
		t.Fatal(err)
	}
	m.SetTranslationCaching(true)

	if math.Float64bits(cached) != math.Float64bits(uncached) {
		t.Fatalf("cached BLEU %.17g != uncached BLEU %.17g", cached, uncached)
	}
}

// TestTranslationCacheInvalidatedByTraining: a stale cache across optimiser
// steps would silently freeze the model's translations.
func TestTranslationCacheInvalidatedByTraining(t *testing.T) {
	m, src, tgt := cacheTestModel(t)
	m.translateShared(nil, src[16])
	if m.cache.Len() == 0 {
		t.Fatal("expected a cache entry after translateShared")
	}
	if _, err := m.Train(src[:8], tgt[:8]); err != nil {
		t.Fatal(err)
	}
	if after := m.cache.Len(); after != 0 {
		t.Fatalf("cache not invalidated by training: %d entries", after)
	}
}

// TestTranslationCacheLifecycle walks the training model's translation
// cache through a miss, a hit, the full drop at the cap and the off switch.
// internal/infer runs the same walk, and the score memo's, against every
// engine, the F64 one on this cache included.
func TestTranslationCacheLifecycle(t *testing.T) {
	m, _, _ := cacheTestModel(t)
	probe := []int{4, 5, 6}
	first, _ := m.translateShared(nil, probe)
	if n := m.cache.Len(); n != 1 {
		t.Fatalf("a miss must store its translation: %d entries", n)
	}
	if again, hit := m.translateShared(nil, probe); !hit || !eqInts(again, first) || m.cache.Len() != 1 {
		t.Fatalf("a hit must return the stored translation and add nothing: %v vs %v, %d entries", again, first, m.cache.Len())
	}
	// A hit lands in the caller's buffer, and the caller may write over it:
	// the cache hands out none of its own bytes.
	buf := make([]int, 0, 32)
	mine, hit := m.translateShared(buf, probe)
	if !hit || len(mine) == 0 || &mine[0] != &buf[:1][0] {
		t.Fatalf("a hit must decode into the caller's buffer: hit %v, %v", hit, mine)
	}
	clear(mine)
	if again, _ := m.translateShared(nil, probe); !eqInts(again, first) {
		t.Fatalf("writing over a hit reached the cache: %v vs %v", again, first)
	}
	// Length-5 sources never collide with the length-3 probe or each other.
	distinct := func(i int) []int { return []int{i % 8, i / 8 % 8, i / 64 % 8, i / 512 % 8, i / 4096 % 8} }
	i := 0
	for ; m.cache.Len() < transCacheCap; i++ {
		m.translateShared(nil, distinct(i))
	}
	m.translateShared(nil, distinct(i))
	if n := m.cache.Len(); n != 1 {
		t.Fatalf("a miss on a full cache must drop the whole map first: %d entries", n)
	}

	m.SetTranslationCaching(false)
	if n := m.cache.Len(); n != 0 {
		t.Fatalf("switching the cache off must drop its entries: %d left", n)
	}
	if off, hit := m.translateShared(nil, probe); hit || !eqInts(off, first) || m.cache.Len() != 0 {
		t.Fatalf("with the cache off translateShared must decode the same and store nothing: %v vs %v, %d entries", off, first, m.cache.Len())
	}
}

// TestCacheProbesDoNotAllocate pins the hit path's cost: probes build their
// keys and hashes on the stack, a cached translation is decoded into the
// caller's buffer, and a store over an existing entry writes in place.
func TestCacheProbesDoNotAllocate(t *testing.T) {
	m, src, tgt := cacheTestModel(t)
	s, ref := src[16], tgt[16]
	hyp, _ := m.translateShared(nil, s)
	m.cache.StoreScore(s, ref, 0.5)
	buf := make([]int, 0, m.cfg.MaxDecodeLen)
	for name, fn := range map[string]func(){
		"translation hit":            func() { m.cache.Lookup(s, buf) },
		"translation miss":           func() { m.cache.Lookup(ref, buf) },
		"translateShared, cache hit": func() { m.translateShared(buf, s) },
		"score hit":                  func() { m.cache.Score(s, ref) },
		"score miss":                 func() { m.cache.Score(ref, s) },
		"store over an entry":        func() { m.cache.Store(s, hyp) },
		"score store over an entry":  func() { m.cache.StoreScore(s, ref, 0.5) },
	} {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s allocates %v/op, want 0", name, allocs)
		}
	}
}

// TestConcurrentTranslate exercises the sync.Pool workspaces and the
// mutex-guarded cache under the race detector.
func TestConcurrentTranslate(t *testing.T) {
	m, src, _ := cacheTestModel(t)
	want := make([][]int, 8)
	for i := range want {
		want[i] = m.Decode(src[16+i%8])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for k := 0; k < 50; k++ {
				i := rng.Intn(8)
				got, _ := m.translateShared(nil, src[16+i])
				if !eqInts(got, want[i]) {
					t.Errorf("goroutine %d: translateShared diverged: %v vs %v", g, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestTransKeyInjective: distinct token sequences must map to distinct
// translation keys, and distinct (src, ref) pairs to distinct memo keys,
// including length-vs-value and split-position ambiguities.
func TestTransKeyInjective(t *testing.T) {
	seqs := [][]int{
		{}, {0}, {1}, {0, 0}, {1, 2}, {12}, {1, 2, 3}, {12, 3}, {128}, {1, 28}, {-1}, {64}, {63, 0},
	}
	seen := map[string][]int{}
	for _, s := range seqs {
		k := string(appendTokens(nil, s))
		if prev, ok := seen[k]; ok {
			t.Fatalf("translation key collision: %v and %v both map to %q", prev, s, k)
		}
		seen[k] = s
	}
	pairs := map[string][2][]int{}
	for _, a := range seqs {
		for _, b := range seqs {
			k := string(appendScoreKey(nil, a, b))
			if prev, ok := pairs[k]; ok {
				t.Fatalf("memo key collision: %v and %v both map to %q", prev, [2][]int{a, b}, k)
			}
			pairs[k] = [2][]int{a, b}
		}
	}
}

// TestTrainAndTranslateAllocations pins the workspace property end to end:
// once a workspace is warm, an uncached greedy decode allocates only the
// hypothesis it returns and a training example allocates nothing of its own —
// every per-position slice and cache comes out of the workspace. (The second
// allocation allowed is a sync.Pool refill after a collection.)
func TestTrainAndTranslateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops workspaces under the race detector")
	}
	m, src, tgt := cacheTestModel(t)
	m.Decode(src[0]) // warm a pooled workspace at this shape
	if allocs := testing.AllocsPerRun(50, func() { m.Decode(src[0]) }); allocs > 2 {
		t.Errorf("Decode allocates %v times per sentence on a warm workspace, want <= 2", allocs)
	}
	if _, _, err := m.TrainExampleContext(context.Background(), src[0], tgt[0]); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := m.TrainExampleContext(context.Background(), src[0], tgt[0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("TrainExampleContext allocates %v times per example on a warm workspace, want <= 2", allocs)
	}
}

// BenchmarkTrainPair measures one full pair: model init, training, and dev
// scoring — the unit of work Algorithm 1 fans out per sensor pair.
func BenchmarkTrainPair(b *testing.B) {
	src, tgt := goldenCorpus()
	data := PairData{
		Src: "s1", Tgt: "s2",
		TrainSrc: src[:16], TrainTgt: tgt[:16],
		DevSrc: src[16:], DevTgt: tgt[16:],
		SrcVocab: 8, TgtVocab: 8,
	}
	cfg := Config{
		Embed: 16, Hidden: 16, Layers: 2, Dropout: 0.2,
		LearningRate: 5e-3, ClipNorm: 5,
		TrainSteps: 60, BatchSize: 8, MaxDecodeLen: 12,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := TrainPair(cfg, data, 7)
		if res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}

// benchPair is one sensor pair in the language bench/ builds: 13-token
// sentences over 16 words (vocabulary 19 with the reserved tokens), 48
// training and 16 development sentences.
func benchPair() PairData {
	src, tgt := copyCorpus(rand.New(rand.NewSource(5)), 64, 13, 16)
	return PairData{
		Src: "s1", Tgt: "s2",
		TrainSrc: src[:48], TrainTgt: tgt[:48],
		DevSrc: src[48:], DevTgt: tgt[48:],
		SrcVocab: 19, TgtVocab: 19,
	}
}

func benchTrainPair(b *testing.B, cfg Config) {
	data := benchPair()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := TrainPair(cfg, data, 7); res.Err != nil {
			b.Fatal(res.Err)
		}
	}
}

// BenchmarkTrainPairBenchShape is one pair at the model shape every bench/
// workload trains: the unit behind BENCHMARK.json's train_pairs_per_s.
func BenchmarkTrainPairBenchShape(b *testing.B) {
	benchTrainPair(b, Config{
		Embed: 16, Hidden: 16, Layers: 1,
		LearningRate: 5e-3, ClipNorm: 5,
		TrainSteps: 60, BatchSize: 8, MaxDecodeLen: 15,
	})
}

// BenchmarkTrainPairPaperShape is 20 of the paper's 1000 optimiser steps at
// its model shape (§III-A2: 2 layers, 64 units, dropout 0.2, batch 16) — the
// constant DESIGN §9 scales to a full 128-sensor sweep.
func BenchmarkTrainPairPaperShape(b *testing.B) {
	cfg := PaperConfig()
	cfg.TrainSteps = 20
	benchTrainPair(b, cfg)
}

// BenchmarkScoreCorpusCached measures repeated dev scoring of one model, the
// pattern Detect hits when windows share sentences.
func BenchmarkScoreCorpusCached(b *testing.B) {
	m, src, tgt := cacheTestModel(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ScoreCorpus(context.Background(), m, src[16:], tgt[16:]); err != nil {
			b.Fatal(err)
		}
	}
}
