package nmt

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"mdes/internal/bleu"
)

func tinyConfig() Config {
	return Config{
		SrcVocab: 9, TgtVocab: 9,
		Embed: 16, Hidden: 16, Layers: 1,
		Dropout: 0, LearningRate: 5e-3, ClipNorm: 5,
		TrainSteps: 120, BatchSize: 8, MaxDecodeLen: 12,
	}
}

// copyCorpus builds sentences over word ids 3..(3+alphabet) where the target
// equals the source — the simplest learnable relationship.
func copyCorpus(rng *rand.Rand, n, length, alphabet int) (src, tgt [][]int) {
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

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"valid", func(c *Config) {}, true},
		{"tiny vocab", func(c *Config) { c.SrcVocab = 2 }, false},
		{"zero hidden", func(c *Config) { c.Hidden = 0 }, false},
		{"negative dropout", func(c *Config) { c.Dropout = -0.1 }, false},
		{"dropout one", func(c *Config) { c.Dropout = 1 }, false},
		{"zero lr", func(c *Config) { c.LearningRate = 0 }, false},
		{"zero batch", func(c *Config) { c.BatchSize = 0 }, false},
		{"zero decode len", func(c *Config) { c.MaxDecodeLen = 0 }, false},
		{"negative steps", func(c *Config) { c.TrainSteps = -1 }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tinyConfig()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if (err == nil) != tc.ok {
				t.Fatalf("Validate() err = %v, ok = %v", err, tc.ok)
			}
		})
	}
}

func TestPaperAndDefaultConfigs(t *testing.T) {
	pc := PaperConfig()
	if pc.Hidden != 64 || pc.Layers != 2 || pc.TrainSteps != 1000 || pc.Dropout != 0.2 {
		t.Fatalf("PaperConfig deviates from §III-A2: %+v", pc)
	}
	dc := DefaultConfig()
	dc.SrcVocab, dc.TgtVocab = 10, 10
	if err := dc.Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
}

func TestModelLearnsCopyTask(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	src, tgt := copyCorpus(rng, 60, 5, 5)
	cfg := tinyConfig()
	cfg.TrainSteps = 400
	model, err := NewModel(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := model.Train(src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 400 {
		t.Fatalf("Steps = %d", res.Steps)
	}
	score, err := ScoreCorpus(context.Background(), model, src[:20], tgt[:20])
	if err != nil {
		t.Fatal(err)
	}
	if score < 70 {
		t.Fatalf("copy-task BLEU = %.1f, want >= 70 (final loss %.3f)", score, res.FinalLoss)
	}
}

func TestTrainingReducesPerplexity(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	src, tgt := copyCorpus(rng, 40, 4, 4)
	model, err := NewModel(tinyConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	before, err := model.Perplexity(src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := model.Train(src, tgt); err != nil {
		t.Fatal(err)
	}
	after, err := model.Perplexity(src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Fatalf("perplexity did not improve: %.3f -> %.3f", before, after)
	}
}

func TestTranslateEdgeCases(t *testing.T) {
	model, err := NewModel(tinyConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if out := model.Decode(nil); out != nil {
		t.Fatalf("Decode(nil) = %v, want nil", out)
	}
	// Out-of-vocabulary and negative ids must be clamped to <unk>, not panic.
	out := model.Decode([]int{999, -5, 3})
	if len(out) > tinyConfig().MaxDecodeLen {
		t.Fatalf("decode exceeded MaxDecodeLen: %d", len(out))
	}
	for _, tok := range out {
		if tok == BosID {
			t.Fatal("decoder must never emit BOS")
		}
		if tok < 0 || tok >= tinyConfig().TgtVocab {
			t.Fatalf("decoded token %d out of vocab", tok)
		}
	}
}

func TestTrainRejectsBadCorpora(t *testing.T) {
	model, err := NewModel(tinyConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := model.Train([][]int{{3}}, [][]int{}); err == nil {
		t.Fatal("mismatched corpus sides must error")
	}
	if _, err := model.Train(nil, nil); err == nil {
		t.Fatal("empty corpus must error")
	}
	if _, _, err := model.TrainExample(nil, []int{3}); err == nil {
		t.Fatal("empty source must error")
	}
	if _, err := model.Perplexity([][]int{{}}, [][]int{{}}); err == nil {
		t.Fatal("all-empty perplexity corpus must error")
	}
}

func TestDeterministicTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	src, tgt := copyCorpus(rng, 20, 4, 4)
	run := func() []int {
		cfg := tinyConfig()
		cfg.TrainSteps = 30
		m, err := NewModel(cfg, 77)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Train(src, tgt); err != nil {
			t.Fatal(err)
		}
		return m.Decode(src[0])
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic decode lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic decode at %d: %v vs %v", i, a, b)
		}
	}
}

// Sampled finite-difference check of the full seq2seq loss, covering
// embeddings, both stacks, attention, and the output projection end to end.
func TestSeq2SeqGradCheckSampled(t *testing.T) {
	cfg := Config{
		SrcVocab: 7, TgtVocab: 7,
		Embed: 6, Hidden: 6, Layers: 2,
		Dropout: 0, LearningRate: 1e-3, ClipNorm: 0,
		TrainSteps: 1, BatchSize: 1, MaxDecodeLen: 8,
	}
	m, err := NewModel(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	src := []int{3, 4, 5, 6}
	tgt := []int{4, 3, 6}

	loss := func() float64 {
		l, _, _ := m.scoreExampleForTest(src, tgt)
		return l
	}
	m.params.ZeroGrad()
	if _, _, err := m.TrainExample(src, tgt); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(6))
	const h = 1e-5
	checked := 0
	for _, prm := range m.params.All() {
		for try := 0; try < 4; try++ {
			i := rng.Intn(len(prm.W.Data))
			analytic := prm.Grad.Data[i]
			orig := prm.W.Data[i]
			prm.W.Data[i] = orig + h
			up := loss()
			prm.W.Data[i] = orig - h
			down := loss()
			prm.W.Data[i] = orig
			numeric := (up - down) / (2 * h)
			scale := math.Max(1, math.Max(math.Abs(numeric), math.Abs(analytic)))
			if math.Abs(numeric-analytic)/scale > 1e-4 {
				t.Fatalf("%s[%d]: analytic %.8f numeric %.8f", prm.Name, i, analytic, numeric)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no parameters checked")
	}
}

// scoreExampleForTest exposes the no-grad loss for finite differences.
func (m *Model) scoreExampleForTest(src, tgt []int) (float64, int, error) {
	l, n := m.scoreExample(src, tgt)
	return l, n, nil
}

func TestScoreSentenceUsesSmoothing(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	src, tgt := copyCorpus(rng, 40, 5, 4)
	cfg := tinyConfig()
	cfg.TrainSteps = 100
	m, err := NewModel(cfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Train(src, tgt); err != nil {
		t.Fatal(err)
	}
	s := ScoreSentence(m, src[0], tgt[0])
	if s < 0 || s > 100 {
		t.Fatalf("sentence score %v out of range", s)
	}
}

// TestSentenceScorerMatchesAllocatingReference pins the scoring tail
// ScoreSentence and internal/infer share to what nmt.ScoreSentence computed
// before the tails were merged: copy-on-write masking of <unk> reference
// tokens, then the allocating string-keyed bleu.SentenceIDs. One scorer is
// reused across all cases, so stale scratch would show too.
func TestSentenceScorerMatchesAllocatingReference(t *testing.T) {
	oldMask := func(ref []int) []int {
		masked := append([]int(nil), ref...)
		for i, tok := range ref {
			if tok == UnkID {
				masked[i] = -(i + 1)
			}
		}
		return masked
	}
	rng := rand.New(rand.NewSource(77))
	randSeq := func() []int {
		s := make([]int, rng.Intn(12)) // includes empty sequences
		for i := range s {
			s[i] = rng.Intn(8) // ids 0..7: <unk> shows up in about an eighth of positions
		}
		return s
	}
	sc := NewSentenceScorer()
	sawUnk := false
	for n := 0; n < 2000; n++ {
		ref, hyp := randSeq(), randSeq()
		if n%3 == 0 && len(ref) > 0 {
			hyp = append([]int(nil), ref...) // near-perfect hypotheses reach the high orders
		}
		for _, tok := range ref {
			sawUnk = sawUnk || tok == UnkID
		}
		refBefore := append([]int(nil), ref...)
		want := bleu.SentenceIDs(oldMask(ref), hyp, bleu.MaxOrder, bleu.SmoothAddOne)
		got := sc.Score(ref, hyp)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("case %d: ref %v hyp %v: shared tail %.17g, reference %.17g", n, ref, hyp, got, want)
		}
		if !eqInts(ref, refBefore) {
			t.Fatalf("case %d: Score modified the caller's reference: %v -> %v", n, refBefore, ref)
		}
	}
	if !sawUnk {
		t.Fatal("no reference held <unk>: the masking was not exercised")
	}
}

func TestTrainPairsOrderAndDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	mkPair := func(name string) PairData {
		src, tgt := copyCorpus(rng, 16, 4, 4)
		return PairData{
			Src: name, Tgt: name + "'",
			TrainSrc: src, TrainTgt: tgt,
			DevSrc: src[:4], DevTgt: tgt[:4],
			SrcVocab: 9, TgtVocab: 9,
		}
	}
	pairs := []PairData{mkPair("a"), mkPair("b"), mkPair("c")}
	cfg := tinyConfig()
	cfg.TrainSteps = 15

	run := func(workers int) []PairResult {
		return TrainPairs(context.Background(), cfg, pairs, workers, 100)
	}
	serial := run(1)
	parallel := run(3)
	for i := range serial {
		if serial[i].Err != nil || parallel[i].Err != nil {
			t.Fatalf("pair %d errored: %v / %v", i, serial[i].Err, parallel[i].Err)
		}
		if serial[i].Src != pairs[i].Src {
			t.Fatalf("result order broken at %d", i)
		}
		if math.Abs(serial[i].BLEU-parallel[i].BLEU) > 1e-9 {
			t.Fatalf("pair %d BLEU differs across worker counts: %v vs %v",
				i, serial[i].BLEU, parallel[i].BLEU)
		}
	}
}

func TestTrainPairsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(16))
	src, tgt := copyCorpus(rng, 8, 4, 4)
	pairs := []PairData{{
		Src: "x", Tgt: "y",
		TrainSrc: src, TrainTgt: tgt, DevSrc: src, DevTgt: tgt,
		SrcVocab: 9, TgtVocab: 9,
	}}
	res := TrainPairs(ctx, tinyConfig(), pairs, 2, 0)
	if res[0].Err == nil {
		t.Fatal("cancelled context must surface an error")
	}
}

// TestTrainContextCancelsMidPair: cancellation must take effect within a
// pair's step loop, not only between pairs — a pair configured to train for
// ~a million steps must stop almost immediately after the deadline.
func TestTrainContextCancelsMidPair(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	src, tgt := copyCorpus(rng, 16, 6, 5)
	cfg := tinyConfig()
	cfg.TrainSteps = 1 << 20
	m, err := NewModel(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := m.TrainContext(ctx, src, tgt)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt", elapsed)
	}
	if res.Steps >= cfg.TrainSteps {
		t.Fatalf("run completed all %d steps despite cancellation", res.Steps)
	}
}

// TestTrainPairsMidRunCancellation cancels after the first pair lands and
// checks the invariant every caller relies on: each result is either fully
// trained (model present, no error) or carries ctx.Err() — never a silent
// half-trained model.
func TestTrainPairsMidRunCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	pairs := make([]PairData, 8)
	for i := range pairs {
		src, tgt := copyCorpus(rng, 12, 4, 4)
		pairs[i] = PairData{
			Src: "s", Tgt: "t",
			TrainSrc: src, TrainTgt: tgt, DevSrc: src[:3], DevTgt: tgt[:3],
			SrcVocab: 9, TgtVocab: 9,
		}
	}
	cfg := tinyConfig()
	cfg.TrainSteps = 40
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	results := TrainPairsOpts(ctx, cfg, pairs, 2, 7, PairsOptions{
		OnResult: func(i int, r PairResult) { once.Do(cancel) },
	})
	var trained, cancelled int
	for i, r := range results {
		switch {
		case r.Err == nil:
			if r.Model == nil {
				t.Fatalf("pair %d: no error but no model", i)
			}
			trained++
		case errors.Is(r.Err, context.Canceled):
			if r.Model != nil {
				t.Fatalf("pair %d: cancelled result still carries a model", i)
			}
			cancelled++
		default:
			t.Fatalf("pair %d: unexpected error %v", i, r.Err)
		}
	}
	if trained == 0 || cancelled == 0 {
		t.Fatalf("want a mix of trained and cancelled pairs, got %d/%d", trained, cancelled)
	}
}

// TestTrainPairsOptsCompletedSkips: pairs satisfied by the Completed hook are
// installed verbatim without retraining, do not fire OnResult, and do not
// perturb the seeds of the pairs that are trained.
func TestTrainPairsOptsCompletedSkips(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	mkPair := func(name string) PairData {
		src, tgt := copyCorpus(rng, 12, 4, 4)
		return PairData{
			Src: name, Tgt: name + "'",
			TrainSrc: src, TrainTgt: tgt, DevSrc: src[:3], DevTgt: tgt[:3],
			SrcVocab: 9, TgtVocab: 9,
		}
	}
	pairs := []PairData{mkPair("a"), mkPair("b"), mkPair("c")}
	cfg := tinyConfig()
	cfg.TrainSteps = 15

	full := TrainPairs(context.Background(), cfg, pairs, 2, 100)

	canned := PairResult{Src: "b", Tgt: "b'", BLEU: 42.5}
	var fired []int
	resumed := TrainPairsOpts(context.Background(), cfg, pairs, 2, 100, PairsOptions{
		Completed: func(i int) (PairResult, bool) {
			if i == 1 {
				return canned, true
			}
			return PairResult{}, false
		},
		OnResult: func(i int, r PairResult) { fired = append(fired, i) },
	})
	if resumed[1].BLEU != 42.5 || resumed[1].Err != nil {
		t.Fatalf("completed pair not installed verbatim: %+v", resumed[1])
	}
	for _, i := range fired {
		if i == 1 {
			t.Fatal("OnResult fired for a resumed pair")
		}
	}
	if len(fired) != 2 {
		t.Fatalf("OnResult fired %d times, want 2", len(fired))
	}
	for _, i := range []int{0, 2} {
		if resumed[i].Err != nil || full[i].Err != nil {
			t.Fatalf("pair %d errored: %v / %v", i, resumed[i].Err, full[i].Err)
		}
		if resumed[i].BLEU != full[i].BLEU {
			t.Fatalf("pair %d BLEU drifted on resume: %v vs %v", i, resumed[i].BLEU, full[i].BLEU)
		}
	}
}

func TestTrainPairPropagatesConfigErrors(t *testing.T) {
	res := TrainPair(Config{}, PairData{Src: "a", Tgt: "b", SrcVocab: 1, TgtVocab: 1}, 0)
	if res.Err == nil {
		t.Fatal("invalid config must error")
	}
}

func TestScoreCorpusPerfectModelUpperBound(t *testing.T) {
	// Sanity: BLEU of references against themselves through the ids helper.
	refs := [][]int{{3, 4, 5, 3}, {4, 4, 6}}
	if got := bleu.CorpusIDs(refs, refs, 4); math.Abs(got-100) > 1e-9 {
		t.Fatalf("self BLEU = %v", got)
	}
}
