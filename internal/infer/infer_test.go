package infer

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mdes/internal/nmt"
)

func testConfig() nmt.Config {
	return nmt.Config{
		SrcVocab: 12, TgtVocab: 12,
		Embed: 8, Hidden: 8, Layers: 2, Dropout: 0.2,
		LearningRate: 5e-3, ClipNorm: 5,
		TrainSteps: 10, BatchSize: 8, MaxDecodeLen: 10,
	}
}

func testState(t testing.TB, seed int64) nmt.State {
	t.Helper()
	m, err := nmt.NewModel(testConfig(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return m.State()
}

// newEngine builds a fresh engine at prec from seed's model state: at F64
// over a model of its own, so no two engines share a cache.
func newEngine(t testing.TB, seed int64, prec Precision) *Model {
	t.Helper()
	if prec == F64 {
		nm, err := nmt.LoadModel(testState(t, seed))
		if err != nil {
			t.Fatal(err)
		}
		return FromModel(nm)
	}
	m, err := FromState(testState(t, seed), prec)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func randSentences(rng *rand.Rand, n, maxLen, vocab int) [][]int {
	out := make([][]int, n)
	for i := range out {
		s := make([]int, rng.Intn(maxLen+1))
		for j := range s {
			s[j] = rng.Intn(vocab)
			if rng.Intn(10) == 0 {
				s[j] = nmt.UnkID // exercise reference masking
			}
		}
		out[i] = s
	}
	return out
}

// TestScoreBatchMatchesSingle pins the load-bearing batching invariant: a
// sentence scored inside a batch gets the bit-identical score it gets alone,
// at every precision, with the translation cache on and off.
func TestScoreBatchMatchesSingle(t *testing.T) {
	for _, prec := range []Precision{F64, F32, Int8} {
		for _, cache := range []bool{false, true} {
			m := newEngine(t, 11, prec)
			m.SetTranslationCaching(cache)
			rng := rand.New(rand.NewSource(23))
			srcs := randSentences(rng, 37, 9, 12)
			refs := randSentences(rng, 37, 9, 12)
			got := make([]float64, len(srcs))
			m.ScoreBatch(srcs, refs, got)
			for i := range srcs {
				want := m.ScoreSentence(srcs[i], refs[i])
				if math.Float64bits(want) != math.Float64bits(got[i]) {
					t.Fatalf("prec=%v cache=%v sentence %d: batch %v single %v",
						prec, cache, i, got[i], want)
				}
			}
			// Repeated batch (fully cached when cache=true) must agree.
			again := make([]float64, len(srcs))
			m.ScoreBatch(srcs, refs, again)
			for i := range got {
				if math.Float64bits(again[i]) != math.Float64bits(got[i]) {
					t.Fatalf("prec=%v cache=%v sentence %d: rescore %v first %v",
						prec, cache, i, again[i], got[i])
				}
			}
		}
	}
}

// TestInferMatchesF64 pins agreement between the f32 engine and the float64
// reference on a fixed random model: identical greedy translations and
// near-identical sentence scores. Deterministic seeds make the exact
// assertions stable.
func TestInferMatchesF64(t *testing.T) {
	st := testState(t, 5)
	ref64, err := nmt.LoadModel(st)
	if err != nil {
		t.Fatal(err)
	}
	m, err := FromState(st, F32)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	srcs := randSentences(rng, 25, 9, 12)
	refs := randSentences(rng, 25, 9, 12)
	for i := range srcs {
		want := ref64.Decode(srcs[i])
		got := m.Translate(srcs[i])
		if len(got) != len(want) {
			t.Fatalf("sentence %d: f32 hyp %v, f64 hyp %v", i, got, want)
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("sentence %d: f32 hyp %v, f64 hyp %v", i, got, want)
			}
		}
		s64 := nmt.ScoreSentence(ref64, srcs[i], refs[i])
		s32 := m.ScoreSentence(srcs[i], refs[i])
		if math.Abs(s64-s32) > 1e-3 {
			t.Fatalf("sentence %d: f32 score %v, f64 score %v", i, s32, s64)
		}
	}
}

// TestScoreBatchSteadyStateAllocs pins the hot-path contract: with the
// translation cache off (the configuration the throughput benchmarks run),
// warmed batched scoring allocates nothing.
func TestScoreBatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops workspaces under the race detector")
	}
	for _, prec := range []Precision{F32, Int8} {
		m, err := FromState(testState(t, 11), prec)
		if err != nil {
			t.Fatal(err)
		}
		m.SetTranslationCaching(false)
		rng := rand.New(rand.NewSource(7))
		srcs := randSentences(rng, 16, 8, 12)
		refs := randSentences(rng, 16, 8, 12)
		for i := range srcs {
			if len(srcs[i]) == 0 {
				srcs[i] = []int{3}
			}
		}
		out := make([]float64, len(srcs))
		m.ScoreBatch(srcs, refs, out) // warm the pooled workspace
		allocs := testing.AllocsPerRun(100, func() {
			m.ScoreBatch(srcs, refs, out)
		})
		if allocs != 0 {
			t.Fatalf("prec=%v: ScoreBatch allocates %v/op, want 0", prec, allocs)
		}
	}
}

// TestTranslationCacheLifecycle walks every engine's nmt.TransCache through
// infer's batched translate path: a miss, a hit, the full drop at its
// 4096-entry cap and the off switch; and the score memo beside it, which
// scoreBatch alone writes, through its admission rule, its cap and the same
// drops — at F64 a training step of the model it shares the cache with too.
func TestTranslationCacheLifecycle(t *testing.T) {
	for _, prec := range []Precision{F64, F32, Int8} {
		m := newEngine(t, 11, prec)
		probe := []int{4, 5, 6}
		first := m.Translate(probe)
		if n := m.cache.Len(); n != 1 {
			t.Fatalf("%v: a miss must store its translation: %d entries", prec, n)
		}
		if again := m.Translate(probe); !slices.Equal(again, first) || m.cache.Len() != 1 {
			t.Fatalf("%v: a hit must return the stored translation and add nothing: %v vs %v, %d entries", prec, again, first, m.cache.Len())
		}
		// Length-5 sources never collide with the length-3 probe or each other.
		distinct := func(i int) []int { return []int{i % 8, i / 8 % 8, i / 64 % 8, i / 512 % 8, i / 4096 % 8} }
		i := 0
		for ; m.cache.Len() < 4096; i++ {
			m.Translate(distinct(i))
		}
		m.Translate(distinct(i))
		if n := m.cache.Len(); n != 1 {
			t.Fatalf("%v: a miss on a full cache must drop the whole map first: %d entries", prec, n)
		}

		// The memo's admission rule: first sighting not stored, second
		// stored, third a hit.
		m.cache.Drop()
		ref := []int{3, 4, 5}
		want := m.ScoreSentence(probe, ref)
		if _, hit := m.CachedScore(probe, ref); hit || m.cache.ScoreLen() != 0 {
			t.Fatalf("%v: a first sighting must not be memoised: hit %v, %d scores", prec, hit, m.cache.ScoreLen())
		}
		if got := m.ScoreSentence(probe, ref); math.Float64bits(got) != math.Float64bits(want) || m.cache.ScoreLen() != 1 {
			t.Fatalf("%v: a second sighting must score the same and be memoised: %v vs %v, %d scores", prec, got, want, m.cache.ScoreLen())
		}
		if got, hit := m.CachedScore(probe, ref); !hit || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%v: a third sighting must hit the memo with the same score: hit %v, %v vs %v", prec, hit, got, want)
		}
		// A batch mixes memo hits, cached translations and decodes, and
		// answers each as it would alone.
		srcs := [][]int{probe, {7, 8}, probe, {}}
		refs := [][]int{ref, {3}, {3, 4, 6}, {5}}
		out := make([]float64, len(srcs))
		m.ScoreBatch(srcs, refs, out)
		if math.Float64bits(out[0]) != math.Float64bits(want) || m.cache.ScoreLen() != 2 {
			t.Fatalf("%v: batch: memo hit %v vs %v; %d scores memoised, want 2 (the hit and the cached-translation pair)", prec, out[0], want, m.cache.ScoreLen())
		}
		m.SetTranslationCaching(false)
		for i := range srcs {
			if got := m.ScoreSentence(srcs[i], refs[i]); math.Float64bits(got) != math.Float64bits(out[i]) {
				t.Fatalf("%v: batch sentence %d: %v with the memo, %v computed", prec, i, out[i], got)
			}
		}
		m.SetTranslationCaching(true)

		// Drop, the memo's own cap and (at F64, last: it moves the weights) a
		// training step empty it.
		refill := func() {
			t.Helper()
			m.ScoreSentence(probe, ref)
			m.ScoreSentence(probe, ref)
			if m.cache.ScoreLen() != 1 {
				t.Fatalf("%v: refill: %d scores memoised, want 1", prec, m.cache.ScoreLen())
			}
		}
		refill()
		m.cache.Drop()
		if n := m.cache.ScoreLen(); n != 0 {
			t.Fatalf("%v: Drop must empty the memo: %d scores left", prec, n)
		}
		m.Translate(probe)
		for i := 0; m.cache.ScoreLen() < 4096; i++ {
			m.ScoreSentence(probe, distinct(i))
		}
		m.ScoreSentence(probe, []int{7})
		if n := m.cache.ScoreLen(); n != 1 {
			t.Fatalf("%v: a store into a full memo must drop the whole map first: %d scores", prec, n)
		}

		m.SetTranslationCaching(false)
		if n, ns := m.cache.Len(), m.cache.ScoreLen(); n != 0 || ns != 0 {
			t.Fatalf("%v: switching the cache off must drop its entries: %d translations, %d scores left", prec, n, ns)
		}
		if off := m.Translate(probe); !slices.Equal(off, first) || m.cache.Len() != 0 {
			t.Fatalf("%v: with the cache off Translate must decode the same and store nothing: %v vs %v, %d entries", prec, off, first, m.cache.Len())
		}
		m.ScoreSentence(probe, ref)
		m.ScoreSentence(probe, ref)
		if n := m.cache.ScoreLen(); n != 0 {
			t.Fatalf("%v: with the cache off nothing may be memoised: %d scores", prec, n)
		}
		if m.f64 != nil {
			m.SetTranslationCaching(true)
			refill()
			if _, err := m.f64.Train([][]int{{3, 4}}, [][]int{{5}}); err != nil {
				t.Fatal(err)
			}
			if n := m.cache.ScoreLen(); n != 0 {
				t.Fatalf("%v: a training step must empty the memo: %d scores left", prec, n)
			}
		}
	}
}

// TestF64EngineMatchesReference is the F64 engine's differential test: on
// seeded random pairs, with sources that repeat inside a batch, its
// ScoreBatch and ScoreSentence equal the uncached nmt.ScoreSentence bit for
// bit with the memo on and off, scored cold and again warm. And k copies of
// one source decode once: they leave one translation-cache entry, and the
// later copies are memoised as second sightings.
func TestF64EngineMatchesReference(t *testing.T) {
	ref, err := nmt.LoadModel(testState(t, 17))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	srcs := randSentences(rng, 40, 9, 12)
	refs := randSentences(rng, len(srcs)+8, 9, 12)
	for i := 0; i < 8; i++ { // repeats, half against their first copy's reference
		j := rng.Intn(40)
		srcs = append(srcs, srcs[j])
		if i%2 == 0 {
			refs[40+i] = refs[j]
		}
	}
	want := make([]float64, len(srcs))
	for i := range srcs {
		want[i] = nmt.ScoreSentence(ref, srcs[i], refs[i])
	}
	same := func(label string, got []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s sentence %d: %v, reference %v", label, i, got[i], want[i])
			}
		}
	}
	for _, cache := range []bool{true, false} {
		m := newEngine(t, 17, F64)
		m.SetTranslationCaching(cache)
		for pass := 0; pass < 2; pass++ {
			got := make([]float64, len(srcs))
			m.ScoreBatch(srcs, refs, got)
			same(fmt.Sprintf("cache=%v pass %d batch", cache, pass), got)
			for i := range srcs {
				got[i] = m.ScoreSentence(srcs[i], refs[i])
			}
			same(fmt.Sprintf("cache=%v pass %d single", cache, pass), got)
		}

		m.SetTranslationCaching(cache) // empties the cache
		// k copies against k distinct references: one decode, one cache
		// entry, and every copy after the first counts as a second sighting.
		k := 5
		copies, kRefs := make([][]int, k), make([][]int, k)
		for i := range copies {
			copies[i], kRefs[i] = []int{4, 5, 6}, []int{3 + i}
		}
		out := make([]float64, k)
		m.ScoreBatch(copies, kRefs, out)
		wantLen, wantMemo := 0, 0
		if cache {
			wantLen, wantMemo = 1, k-1
		}
		if m.cache.Len() != wantLen || m.cache.ScoreLen() != wantMemo {
			t.Fatalf("cache=%v: %d copies of one source left %d translations and %d scores, want %d and %d",
				cache, k, m.cache.Len(), m.cache.ScoreLen(), wantLen, wantMemo)
		}
		for i := range copies {
			if w := nmt.ScoreSentence(ref, copies[i], kRefs[i]); math.Float64bits(out[i]) != math.Float64bits(w) {
				t.Fatalf("cache=%v: copy %d scored %v, reference %v", cache, i, out[i], w)
			}
		}
	}
}

// TestWarmProbesDoNotAllocate pins the serving hit paths of every engine at
// zero allocations: the memo probe Stream.emit answers a replayed
// pair with, and the lookup of a cached translation behind a memo miss (the
// hypothesis is read in place; the memo store that follows allocates its
// entry, so the translate step is pinned on its own). Both run on a held
// workspace: what sync.Pool recycles is TestScoreBatchSteadyStateAllocs's
// business.
func TestWarmProbesDoNotAllocate(t *testing.T) {
	for _, prec := range []Precision{F64, F32, Int8} {
		m := newEngine(t, 11, prec)
		src, ref := []int{4, 5, 6, 7}, []int{3, 4, 5}
		m.ScoreSentence(src, ref)
		m.ScoreSentence(src, ref) // second sighting: memoised
		hit := false
		if allocs := testing.AllocsPerRun(100, func() { _, hit = m.CachedScore(src, ref) }); allocs != 0 || !hit {
			t.Errorf("%v: CachedScore allocates %v/op (hit %v), want 0 and a hit", prec, allocs, hit)
		}
		w := m.getWS()
		w.src1[0] = src
		w.hyps = resizeOuterInts(w.hyps, 1)
		group, cached := []int{0}, []int{0}
		if allocs := testing.AllocsPerRun(100, func() { m.translateGroup(w, w.src1[:], group, w.hyps, cached) }); allocs != 0 || cached[0] == 0 {
			t.Errorf("%v: translateGroup on a cached source allocates %v/op (cached %v), want 0 and a cache hit", prec, allocs, cached[0])
		}
		m.putWS(w)
	}
}

// TestFromStateRejectsF64 pins that FromState only freezes: F64 engines come
// from FromModel.
func TestFromStateRejectsF64(t *testing.T) {
	if _, err := FromState(testState(t, 3), F64); err == nil {
		t.Fatal("FromState(F64) succeeded, want error")
	}
	if _, err := FromState(testState(t, 3), Precision(9)); err == nil {
		t.Fatal("FromState(9) succeeded, want error")
	}
}

// TestFromStateRejectsForeignWeights pins that freezing walks exactly the
// architecture the config implies: a weight map that lacks one of its tensors,
// holds one at another shape, or carries one it never reads — what a dot- or
// concat-attention model's state looks like — is refused, not served.
func TestFromStateRejectsForeignWeights(t *testing.T) {
	h := testConfig().Hidden
	cases := map[string]func(w map[string][]float64){
		"missing (dot attention)": func(w map[string][]float64) { delete(w, "attn.Wa") },
		"mis-shaped":              func(w map[string][]float64) { w["attn.Wa"] = make([]float64, h*2*h) },
		"extra (concat's va)":     func(w map[string][]float64) { w["attn.va"] = make([]float64, h) },
	}
	for name, mutate := range cases {
		st := testState(t, 3)
		mutate(st.Weights)
		for _, prec := range []Precision{F32, Int8} {
			if _, err := FromState(st, prec); err == nil {
				t.Errorf("%s weight at %v: FromState succeeded, want error", name, prec)
			}
		}
	}
}

// TestMemoryCompression pins the resident-size ordering of the formats and
// that GEMM weights compress ~4×/~8× vs the float64 training weights.
// testConfig's vocabularies are past the input-table break-even, so at f32
// every tensor is a plain float32 copy: exactly half.
func TestMemoryCompression(t *testing.T) {
	st := testState(t, 3)
	var f64Bytes int
	for _, wts := range st.Weights {
		f64Bytes += 8 * len(wts)
	}
	f32m, err := FromState(st, F32)
	if err != nil {
		t.Fatal(err)
	}
	q8m, err := FromState(st, Int8)
	if err != nil {
		t.Fatal(err)
	}
	if !(q8m.MemoryBytes() < f32m.MemoryBytes() && f32m.MemoryBytes() < f64Bytes) {
		t.Fatalf("sizes not ordered: int8 %d, f32 %d, f64 %d",
			q8m.MemoryBytes(), f32m.MemoryBytes(), f64Bytes)
	}
	if 2*f32m.MemoryBytes() != f64Bytes {
		t.Fatalf("f32 size %d, want exactly half of f64 %d", f32m.MemoryBytes(), f64Bytes)
	}
}

func TestParsePrecision(t *testing.T) {
	for in, want := range map[string]Precision{"f64": F64, "f32": F32, "int8": Int8, "q8": Int8} {
		got, err := ParsePrecision(in)
		if err != nil || got != want {
			t.Fatalf("ParsePrecision(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParsePrecision("fp16"); err == nil {
		t.Fatal("ParsePrecision accepted fp16")
	}
	if F64.String() != "f64" || F32.String() != "f32" || Int8.String() != "int8" {
		t.Fatal("Precision.String mismatch")
	}
}
