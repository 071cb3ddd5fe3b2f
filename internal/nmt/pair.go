package nmt

import (
	"context"
	"fmt"
	"sync"
	"time"

	"mdes/internal/bleu"
	"mdes/internal/fanout"
)

// PairData is the aligned corpus for one directional sensor pair (i → j):
// training sentences, and a development split used to score the learned
// relationship.
type PairData struct {
	Src, Tgt string // sensor names, for reporting

	TrainSrc, TrainTgt [][]int // aligned training sentences (token ids)
	DevSrc, DevTgt     [][]int // aligned development sentences

	SrcVocab, TgtVocab int
}

// PairResult is the trained model and its translation score for one pair.
type PairResult struct {
	Src, Tgt string
	Model    *Model
	// BLEU is the corpus BLEU of greedy dev-set translations against the
	// target references — the s(i,j) edge weight of the relationship graph.
	BLEU float64
	// Runtime covers training plus dev-set scoring, mirroring Fig 4(a).
	Runtime time.Duration
	Err     error
}

// TrainPair trains one directional model on data and scores it on the dev
// split. The seed makes the run reproducible.
func TrainPair(cfg Config, data PairData, seed int64) PairResult {
	return TrainPairContext(context.Background(), cfg, data, seed)
}

// TrainPairContext is TrainPair with cancellation: the context is threaded
// into the per-step training loop, so cancelling takes effect mid-pair. A
// cancelled result carries an error wrapping ctx.Err() and no model, even
// when the cancellation lands during dev scoring.
func TrainPairContext(ctx context.Context, cfg Config, data PairData, seed int64) PairResult {
	//mdes:allow(detrand) Runtime mirrors the paper's Fig 4(a) wall-clock measurement; it never feeds a score
	start := time.Now()
	res := PairResult{Src: data.Src, Tgt: data.Tgt}
	cfg.SrcVocab = data.SrcVocab
	cfg.TgtVocab = data.TgtVocab
	model, err := NewModel(cfg, seed)
	if err != nil {
		res.Err = fmt.Errorf("pair %s->%s: %w", data.Src, data.Tgt, err)
		return res
	}
	_, err = model.TrainContext(ctx, data.TrainSrc, data.TrainTgt)
	// Nothing trains the model after this: free its gradients and moments
	// (three of every four float64s it held) before it scores and serves.
	model.freeTrainState()
	if err != nil {
		res.Err = fmt.Errorf("pair %s->%s: train: %w", data.Src, data.Tgt, err)
		return res
	}
	score, err := ScoreCorpus(ctx, model, data.DevSrc, data.DevTgt)
	if err != nil {
		res.Err = fmt.Errorf("pair %s->%s: score: %w", data.Src, data.Tgt, err)
		return res
	}
	res.Model, res.BLEU = model, score
	//mdes:allow(detrand) Runtime is reporting only, see above
	res.Runtime = time.Since(start)
	return res
}

// ScoreCorpus greedily translates every source sentence and returns corpus
// BLEU against the aligned references. Translation dominates the cost, so
// the context is consulted once per sentence; a cancelled run returns
// ctx.Err(). The masked references and the hypotheses share one slab per
// call.
func ScoreCorpus(ctx context.Context, m *Model, src, refs [][]int) (float64, error) {
	seqs := make([][]int, len(refs)+len(src))
	maskedRefs, hyps := seqs[:len(refs)], seqs[len(refs):]
	// The slab holds every reference, masked in place, then room for
	// hypotheses as long as their sources, about what a translation runs to. A cache hit decodes
	// straight into the free tail, so appending it moves nothing; if the slab
	// has to grow, the sequences already cut from the old array stay valid,
	// as nothing writes there again.
	size := 0
	for _, r := range refs {
		size += len(r)
	}
	for _, s := range src {
		size += len(s)
	}
	slab := make([]int, 0, size)
	for i, r := range refs {
		start := len(slab)
		slab = slab[:start+len(maskRefUnknowns(slab[start:], r))]
		maskedRefs[i] = slab[start:len(slab):len(slab)]
	}
	for i, s := range src {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		start := len(slab)
		hyp, _ := m.translateShared(slab[start:], s)
		slab = append(slab, hyp...)
		hyps[i] = slab[start:len(slab):len(slab)]
	}
	return bleu.CorpusIDs(maskedRefs, hyps, bleu.MaxOrder), nil
}

// ScoreSentence greedily decodes one source sentence, uncached, and returns
// smoothed sentence BLEU against its reference — the f(i,j) of Algorithm 2.
// It is the reference the serving engine (infer.FromModel, which adds the
// translation cache and score memo) is tested against.
func ScoreSentence(m *Model, src, ref []int) float64 {
	sc := sentenceScorers.Get().(*SentenceScorer)
	defer sentenceScorers.Put(sc)
	return sc.Score(ref, m.Decode(src))
}

var sentenceScorers = sync.Pool{New: func() any { return NewSentenceScorer() }}

// SentenceScorer is the scoring tail ScoreSentence and infer.Model share:
// mask the <unk> tokens of the observed reference, then smoothed sentence
// BLEU of a greedy translation against it. It reuses its scratch, so
// steady-state scoring allocates nothing; not safe for concurrent use.
type SentenceScorer struct {
	bleu   *bleu.Scorer
	masked []int
}

// NewSentenceScorer returns a scorer with warm scratch.
func NewSentenceScorer() *SentenceScorer { return &SentenceScorer{bleu: bleu.NewScorer()} }

// Score returns the smoothed sentence BLEU of hyp against ref.
//
//mdes:noalloc
func (s *SentenceScorer) Score(ref, hyp []int) float64 {
	s.masked = maskRefUnknowns(s.masked, ref)
	return s.bleu.SentenceIDs(s.masked, hyp, bleu.MaxOrder, bleu.SmoothAddOne)
}

// maskRefUnknowns copies ref into dst's storage with its <unk> tokens
// replaced by per-position sentinels that can never match a hypothesis token.
// An unknown observed state must not count as correctly predicted — otherwise
// a test window full of never-seen events (the strongest possible anomaly)
// would score a perfect translation against a model that also emits <unk>.
//
//mdes:noalloc
func maskRefUnknowns(dst, ref []int) []int {
	dst = append(dst[:0], ref...)
	for i, tok := range dst {
		if tok == UnkID {
			dst[i] = -(i + 1)
		}
	}
	return dst
}

// PairsOptions customises a TrainPairsOpts run.
type PairsOptions struct {
	// Completed, if non-nil, is consulted before training pair i; returning
	// (result, true) installs the result without retraining — the resume
	// hook for checkpointed runs. Skipping a pair does not perturb the seeds
	// of the remaining pairs, so a resumed run reproduces an uninterrupted
	// one bit for bit.
	Completed func(i int) (PairResult, bool)
	// OnResult, if non-nil, is called once per freshly trained pair (not for
	// pairs satisfied by Completed, and not for pairs cancelled before being
	// handed to a worker). Calls are serialised — implementations may journal
	// or update progress state without their own locking.
	OnResult func(i int, r PairResult)
}

// TrainPairs trains every pair on a bounded worker pool, preserving input
// order in the result slice. workers <= 0 selects GOMAXPROCS. The context
// cancels outstanding work: cancelled pairs carry ctx.Err(), and a pair that
// is mid-training when the context is cancelled stops within a few optimiser
// steps rather than running to completion.
//
// Each pair derives its seed as baseSeed + index so results do not depend on
// goroutine scheduling.
func TrainPairs(ctx context.Context, cfg Config, pairs []PairData, workers int, baseSeed int64) []PairResult {
	return TrainPairsOpts(ctx, cfg, pairs, workers, baseSeed, PairsOptions{})
}

// TrainPairsOpts is TrainPairs with resume and completion hooks.
func TrainPairsOpts(ctx context.Context, cfg Config, pairs []PairData, workers int, baseSeed int64, opts PairsOptions) []PairResult {
	results := make([]PairResult, len(pairs))
	pending := make([]int, 0, len(pairs))
	for i := range pairs {
		if opts.Completed != nil {
			if r, ok := opts.Completed(i); ok {
				results[i] = r
				continue
			}
		}
		pending = append(pending, i)
	}

	var emit sync.Mutex
	started := fanout.Each(ctx, len(pending), workers, func(n int) {
		idx := pending[n]
		if err := ctx.Err(); err != nil {
			results[idx] = PairResult{Src: pairs[idx].Src, Tgt: pairs[idx].Tgt, Err: err}
			return
		}
		r := TrainPairContext(ctx, cfg, pairs[idx], baseSeed+int64(idx))
		results[idx] = r
		if opts.OnResult != nil {
			emit.Lock()
			opts.OnResult(idx, r)
			emit.Unlock()
		}
	})
	// Mark everything never handed out as cancelled.
	for _, j := range pending[started:] {
		results[j] = PairResult{Src: pairs[j].Src, Tgt: pairs[j].Tgt, Err: ctx.Err()}
	}
	return results
}
