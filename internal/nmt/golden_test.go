package nmt

import (
	"math"
	"math/rand"
	"testing"
)

// The kernel and workspace optimisations promise *bit-identical* results: the
// blocked mat kernels keep each output element's floating-point accumulation
// order, the workspace keeps RNG consumption unchanged, and the translation
// cache only memoises a deterministic function. This golden test pins a full
// train/decode/score trajectory captured on the pre-optimisation scalar
// implementation; any change that perturbs a single bit of the hot path
// arithmetic shifts the final loss and fails it.

func goldenCorpus() (src, tgt [][]int) {
	rng := rand.New(rand.NewSource(42))
	n, length, alphabet := 24, 8, 5
	src = make([][]int, n)
	tgt = make([][]int, n)
	for i := 0; i < n; i++ {
		s := make([]int, length)
		for j := range s {
			s[j] = 3 + rng.Intn(alphabet)
		}
		src[i] = s
		tgt[i] = append([]int(nil), s...)
	}
	return src, tgt
}

func TestGoldenTrainingTrajectory(t *testing.T) {
	src, tgt := goldenCorpus()
	cfg := Config{
		SrcVocab: 8, TgtVocab: 8,
		Embed: 16, Hidden: 16, Layers: 2, Dropout: 0.2,
		LearningRate: 5e-3, ClipNorm: 5,
		TrainSteps: 120, BatchSize: 8, MaxDecodeLen: 12,
	}
	m, err := NewModel(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Train(src[:16], tgt[:16])
	if err != nil {
		t.Fatal(err)
	}

	// Captured at seed commit e0e21c1 with the naive scalar kernels.
	const wantLoss = 1.0665326571391476
	if math.Float64bits(res.FinalLoss) != math.Float64bits(wantLoss) {
		t.Errorf("FinalLoss = %.17g, want bit-exact %.17g", res.FinalLoss, wantLoss)
	}

	wantDecodes := [][]int{
		{3, 3, 7, 7, 7, 7, 7, 5},
		{7, 7, 7, 7, 7, 7, 5, 4, 4},
		{3, 4, 4, 4, 7, 7, 4, 4},
		{6, 6, 6, 6, 6, 6, 4, 4},
	}
	for i, want := range wantDecodes {
		got := m.Decode(src[16+i])
		if !eqInts(got, want) {
			t.Errorf("Decode(src[%d]) = %v, want %v", 16+i, got, want)
		}
	}

	pp, err := m.Perplexity(src[16:], tgt[16:])
	if err != nil {
		t.Fatal(err)
	}
	const wantPP = 4.4666851569755091
	if math.Float64bits(pp) != math.Float64bits(wantPP) {
		t.Errorf("Perplexity = %.17g, want bit-exact %.17g", pp, wantPP)
	}
}

func eqInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
