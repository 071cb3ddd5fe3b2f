package bleu

import (
	"math"
	"math/rand"
	"testing"
)

// TestScorerMatchesSentenceIDs pins bit-identical agreement between the
// bitset Scorer and the string-based reference on random sequences,
// including the negative sentinel tokens masked references use. Half the
// trials are short (the serving shape); the rest run to 200 tokens, so
// references cross the 64-bit word boundaries of the bitsets. maxN 0 and 5
// exercise clamping.
func TestScorerMatchesSentenceIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	s := NewScorer()
	smoothings := []Smoothing{SmoothNone, SmoothAddOne, SmoothEpsilon}
	for trial := 0; trial < 2000; trial++ {
		maxLen := 14
		if trial%2 == 1 {
			maxLen = 201
		}
		ref := randIntTokens(rng, rng.Intn(maxLen), 6)
		hyp := randIntTokens(rng, rng.Intn(maxLen), 6)
		if trial%4 == 3 {
			// A copy of the reference with a few tokens changed: long
			// n-gram matches and repeats spanning word boundaries.
			hyp = append(hyp[:0], ref...)
			for k := rng.Intn(4); k > 0 && len(hyp) > 0; k-- {
				hyp[rng.Intn(len(hyp))] = rng.Intn(6)
			}
		}
		maxN := rng.Intn(6)
		sm := smoothings[rng.Intn(len(smoothings))]
		want := SentenceIDs(ref, hyp, maxN, sm)
		got := s.SentenceIDs(ref, hyp, maxN, sm)
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("trial %d: Scorer %v != SentenceIDs %v (ref=%v hyp=%v maxN=%d sm=%d)",
				trial, got, want, ref, hyp, maxN, sm)
		}
	}
}

// TestCorpusIDsMatchesCorpus pins that CorpusIDs, counting on bitsets, scores
// random corpora exactly as Corpus scores their stringified tokens — empty
// pairs (skipped), mismatched corpus lengths and negative sentinels included.
func TestCorpusIDsMatchesCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 300; trial++ {
		refs := make([][]int, rng.Intn(12))
		hyps := make([][]int, max(0, len(refs)+rng.Intn(3)-1))
		maxLen := 14
		if trial%3 == 2 {
			maxLen = 150
		}
		for i := range refs {
			refs[i] = randIntTokens(rng, rng.Intn(maxLen), 4+rng.Intn(6))
		}
		for i := range hyps {
			hyps[i] = randIntTokens(rng, rng.Intn(maxLen), 4+rng.Intn(6))
		}
		maxN := rng.Intn(6)
		want := Corpus(stringify(refs), stringify(hyps), maxN)
		if got := CorpusIDs(refs, hyps, maxN); math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("trial %d: CorpusIDs %v != Corpus %v (refs=%v hyps=%v maxN=%d)",
				trial, got, want, refs, hyps, maxN)
		}
	}
}

func stringify(seqs [][]int) [][]string {
	out := make([][]string, len(seqs))
	for i, s := range seqs {
		out[i] = stringifyOne(s)
	}
	return out
}

func randIntTokens(rng *rand.Rand, n, alphabet int) []int {
	out := make([]int, n)
	for i := range out {
		// Small alphabet forces n-gram repeats; occasional negatives mimic
		// masked-unknown sentinels.
		out[i] = rng.Intn(alphabet)
		if rng.Intn(8) == 0 {
			out[i] = -(rng.Intn(10) + 1)
		}
	}
	return out
}

func TestScorerIdenticalSentence(t *testing.T) {
	s := NewScorer()
	toks := []int{3, 4, 5, 6, 7, 8}
	if got := s.SentenceIDs(toks, toks, MaxOrder, SmoothAddOne); got != 100 {
		t.Fatalf("perfect match scored %v, want 100", got)
	}
	if got := s.SentenceIDs(nil, toks, MaxOrder, SmoothAddOne); got != 0 {
		t.Fatalf("empty ref scored %v", got)
	}
	if got := s.SentenceIDs(toks, nil, MaxOrder, SmoothAddOne); got != 0 {
		t.Fatalf("empty hyp scored %v", got)
	}
}

// TestScorerSteadyStateAllocs pins the property the batched scoring loop
// depends on: after warmup, scoring allocates nothing.
func TestScorerSteadyStateAllocs(t *testing.T) {
	s := NewScorer()
	ref := []int{3, 4, 5, 6, 3, 4, 7, 8}
	hyp := []int{3, 4, 5, 6, 3, 4}
	s.SentenceIDs(ref, hyp, MaxOrder, SmoothAddOne) // grow the scratch
	allocs := testing.AllocsPerRun(200, func() {
		s.SentenceIDs(ref, hyp, MaxOrder, SmoothAddOne)
	})
	if allocs != 0 {
		t.Fatalf("Scorer.SentenceIDs allocates %v/op, want 0", allocs)
	}
}

// benchRef and benchHyp are 13-token sentences, the length a bench-model
// window carries (bench/'s sentenceLen).
var (
	benchRef = []int{3, 4, 5, 6, 3, 4, 7, 8, 3, 4, 5, 9, 6}
	benchHyp = []int{3, 4, 5, 6, 3, 9, 7, 8, 3, 4, 4, 9, 10}
)

var sink float64

func BenchmarkScorerSentence(b *testing.B) {
	s := NewScorer()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += s.SentenceIDs(benchRef, benchHyp, MaxOrder, SmoothAddOne)
	}
}

func BenchmarkSentenceIDsString(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += SentenceIDs(benchRef, benchHyp, MaxOrder, SmoothAddOne)
	}
}
