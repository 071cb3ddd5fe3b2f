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

// TestTranslateReturnsFreshCopies guards against callers corrupting the cache
// through the returned slice.
func TestTranslateReturnsFreshCopies(t *testing.T) {
	m, src, _ := cacheTestModel(t)
	first := m.Translate(src[16])
	second := m.Translate(src[16]) // cache hit
	if !eqInts(first, second) {
		t.Fatalf("repeated Translate diverged: %v vs %v", first, second)
	}
	if len(first) > 0 {
		first[0] = -999
		third := m.Translate(src[16])
		if len(third) > 0 && third[0] == -999 {
			t.Fatal("mutating a Translate result leaked into the cache")
		}
	}
}

// TestTranslationCacheInvalidatedByTraining: a stale cache across optimiser
// steps would silently freeze the model's translations.
func TestTranslationCacheInvalidatedByTraining(t *testing.T) {
	m, src, tgt := cacheTestModel(t)
	m.Translate(src[16])
	if m.cache.Len() == 0 {
		t.Fatal("expected a cache entry after Translate")
	}
	if _, err := m.Train(src[:8], tgt[:8]); err != nil {
		t.Fatal(err)
	}
	if after := m.cache.Len(); after != 0 {
		t.Fatalf("cache not invalidated by training: %d entries", after)
	}
}

// TestTranslationCacheLifecycle walks the float64 engine's cache through a
// miss, a hit, the full drop at the cap and the off switch. internal/infer
// runs the same walk against the frozen f32 and int8 engines.
func TestTranslationCacheLifecycle(t *testing.T) {
	m, _, _ := cacheTestModel(t)
	probe := []int{4, 5, 6}
	first := m.Translate(probe)
	if n := m.cache.Len(); n != 1 {
		t.Fatalf("a miss must store its translation: %d entries", n)
	}
	if again := m.Translate(probe); !eqInts(again, first) || m.cache.Len() != 1 {
		t.Fatalf("a hit must return the stored translation and add nothing: %v vs %v, %d entries", again, first, m.cache.Len())
	}
	// Length-5 sources never collide with the length-3 probe or each other.
	distinct := func(i int) []int { return []int{i % 8, i / 8 % 8, i / 64 % 8, i / 512 % 8, i / 4096 % 8} }
	i := 0
	for ; m.cache.Len() < transCacheCap; i++ {
		m.Translate(distinct(i))
	}
	m.Translate(distinct(i))
	if n := m.cache.Len(); n != 1 {
		t.Fatalf("a miss on a full cache must drop the whole map first: %d entries", n)
	}
	m.SetTranslationCaching(false)
	if n := m.cache.Len(); n != 0 {
		t.Fatalf("switching the cache off must drop its entries: %d left", n)
	}
	if off := m.Translate(probe); !eqInts(off, first) || m.cache.Len() != 0 {
		t.Fatalf("with the cache off Translate must decode the same and store nothing: %v vs %v, %d entries", off, first, m.cache.Len())
	}
}

// TestConcurrentTranslate exercises the sync.Pool workspaces and the
// mutex-guarded cache under the race detector.
func TestConcurrentTranslate(t *testing.T) {
	m, src, _ := cacheTestModel(t)
	want := make([][]int, 8)
	for i := range want {
		want[i] = m.Translate(src[16+i%8])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for k := 0; k < 50; k++ {
				i := rng.Intn(8)
				got := m.Translate(src[16+i])
				if !eqInts(got, want[i]) {
					t.Errorf("goroutine %d: Translate diverged: %v vs %v", g, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestTransKeyInjective: distinct token sequences must map to distinct cache
// keys, including length-vs-value ambiguities.
func TestTransKeyInjective(t *testing.T) {
	seqs := [][]int{
		{}, {0}, {1}, {0, 0}, {1, 2}, {12}, {1, 2, 3}, {12, 3}, {128}, {1, 28},
	}
	seen := map[string][]int{}
	for _, s := range seqs {
		k := transKey(s)
		if prev, ok := seen[k]; ok {
			t.Fatalf("transKey collision: %v and %v both map to %q", prev, s, k)
		}
		seen[k] = s
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
