// Package nmt implements the neural machine translation model the framework
// uses to quantify pairwise sensor relationships: a multi-layer LSTM
// encoder/decoder with Luong (general) attention, trained with teacher
// forcing, Adam, and gradient clipping, decoded greedily — a from-scratch,
// scaled-down counterpart of the TensorFlow seq2seq model the paper uses
// (Luong et al. 2015, Sutskever et al. 2014).
//
// Token id conventions follow internal/lang: 0 = <unk>, 1 = <s> (BOS),
// 2 = </s> (EOS); real words start at 3.
package nmt

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"mdes/internal/mat"
	"mdes/internal/nn"
)

// Reserved token ids shared with internal/lang.
const (
	UnkID = 0
	BosID = 1
	EosID = 2
)

// Config holds the NMT hyper-parameters. The paper's settings (§III-A2) are
// 2 LSTM layers, 64 hidden units, 64-dim embeddings, 1000 training steps,
// dropout 0.2; DefaultConfig scales these down for pure-Go sweeps.
type Config struct {
	SrcVocab, TgtVocab int
	Embed              int
	Hidden             int
	Layers             int
	Dropout            float64
	LearningRate       float64
	ClipNorm           float64
	TrainSteps         int
	BatchSize          int
	MaxDecodeLen       int
}

// PaperConfig returns the exact hyper-parameters from §III-A2 of the paper
// (vocabulary sizes must still be filled in by the caller).
func PaperConfig() Config {
	return Config{
		Embed: 64, Hidden: 64, Layers: 2,
		Dropout: 0.2, LearningRate: 1e-3, ClipNorm: 5,
		TrainSteps: 1000, BatchSize: 16, MaxDecodeLen: 40,
	}
}

// DefaultConfig returns hyper-parameters scaled for full pairwise sweeps on a
// laptop while keeping the paper's architecture (2 LSTM layers, attention,
// dropout 0.2).
func DefaultConfig() Config {
	return Config{
		Embed: 32, Hidden: 32, Layers: 2,
		Dropout: 0.2, LearningRate: 2e-3, ClipNorm: 5,
		TrainSteps: 150, BatchSize: 8, MaxDecodeLen: 30,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.SrcVocab < 3 || c.TgtVocab < 3:
		return fmt.Errorf("nmt: vocab sizes must include reserved tokens, got %d/%d", c.SrcVocab, c.TgtVocab)
	case c.Embed <= 0 || c.Hidden <= 0 || c.Layers <= 0:
		return fmt.Errorf("nmt: embed/hidden/layers must be positive, got %d/%d/%d", c.Embed, c.Hidden, c.Layers)
	case c.Dropout < 0 || c.Dropout >= 1:
		return fmt.Errorf("nmt: dropout %v outside [0,1)", c.Dropout)
	case c.LearningRate <= 0:
		return fmt.Errorf("nmt: learning rate %v must be positive", c.LearningRate)
	case c.TrainSteps < 0 || c.BatchSize <= 0:
		return fmt.Errorf("nmt: steps %d / batch %d invalid", c.TrainSteps, c.BatchSize)
	case c.MaxDecodeLen <= 0:
		return fmt.Errorf("nmt: max decode length %d must be positive", c.MaxDecodeLen)
	}
	return nil
}

// Model is one directional translation model g(i,j).
type Model struct {
	cfg    Config
	params nn.Params
	srcEmb *nn.Embedding
	tgtEmb *nn.Embedding
	enc    *nn.StackedLSTM
	dec    *nn.StackedLSTM
	attn   *nn.LuongAttention
	out    *nn.Linear
	opt    *nn.Adam
	rng    *rand.Rand

	// cache memoises greedy decodes per source sentence (ScoreCorpus's) and
	// scores per sentence pair (the F64 infer engine's, see Cache); it is
	// dropped whenever weights change.
	cache TransCache
}

// workspaces hands out per-goroutine scratch arenas so the train and decode
// inner loops reuse memory instead of allocating per timestep. One pool
// serves every model — a Workspace sizes itself to whatever shape uses it —
// so the arenas kept warm number the goroutines training or decoding, not
// the pair models loaded: a model whose windows are all answered from its
// caches decodes nothing, and a pool of its own would sit on its arenas
// until the collector's second cycle found them idle.
var workspaces = sync.Pool{New: func() any { return nn.NewWorkspace() }}

func getWS() *nn.Workspace { return workspaces.Get().(*nn.Workspace) }

func putWS(ws *nn.Workspace) {
	ws.Reset()
	workspaces.Put(ws)
}

// SetTranslationCaching toggles the per-model translation cache and score
// memo (on by default). Turning it off also drops everything cached; exposed
// mainly so tests can compare cached and uncached scoring.
func (m *Model) SetTranslationCaching(on bool) { m.cache.SetCaching(on) }

// NewModel builds a model with freshly initialised weights drawn from seed.
func NewModel(cfg Config, seed int64) (*Model, error) {
	return build(cfg, rand.New(rand.NewSource(seed)))
}

// build lays out the model's layers with initial weights drawn from rng,
// which then drives training; a nil rng leaves the weights zero for Restore
// to fill, and draws nothing.
func build(cfg Config, rng *rand.Rand) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Model{cfg: cfg, rng: rng}
	m.srcEmb = nn.NewEmbedding(&m.params, "src_emb", cfg.SrcVocab, cfg.Embed, rng)
	m.tgtEmb = nn.NewEmbedding(&m.params, "tgt_emb", cfg.TgtVocab, cfg.Embed, rng)
	m.enc = nn.NewStackedLSTM(&m.params, "enc", cfg.Layers, cfg.Embed, cfg.Hidden, cfg.Dropout, rng)
	m.dec = nn.NewStackedLSTM(&m.params, "dec", cfg.Layers, cfg.Embed, cfg.Hidden, cfg.Dropout, rng)
	m.attn = nn.NewLuongAttention(&m.params, "attn", cfg.Hidden, rng)
	m.out = nn.NewLinear(&m.params, "out", cfg.Hidden, cfg.TgtVocab, rng)
	m.opt = nn.NewAdam(cfg.LearningRate)
	return m, nil
}

// Config returns the model's configuration.
func (m *Model) Config() Config { return m.cfg }

// ParamCount returns the number of trainable scalars.
func (m *Model) ParamCount() int { return m.params.Count() }

// HoldsTrainState reports whether the model holds gradients or Adam
// moments: true only while it trains (TrainPairContext frees them once
// training ends; NewModel and LoadModel never allocate them).
func (m *Model) HoldsTrainState() bool { return m.params.HoldsTrainState() }

// freeTrainState drops the gradients and Adam moments, leaving a model that
// holds only its weights. A later Train starts a fresh optimiser, as on a
// loaded model.
func (m *Model) freeTrainState() {
	m.params.FreeTrainState()
	m.opt = nn.NewAdam(m.cfg.LearningRate)
}

// State is a serialisable snapshot of a trained model.
type State struct {
	Config  Config               `json:"config"`
	Weights map[string][]float64 `json:"weights"`
}

// State captures the model's configuration and weights for persistence.
func (m *Model) State() State {
	return State{Config: m.cfg, Weights: m.params.Snapshot()}
}

// LoadModel reconstructs a model from a snapshot. The rebuilt model decodes
// identically to the original and holds only its weights — no random source
// and no initial draw. Optimiser state is not preserved: training it
// allocates fresh gradients and moments, and its random source (source).
func LoadModel(st State) (*Model, error) {
	m, err := build(st.Config, nil)
	if err != nil {
		return nil, err
	}
	if err := m.params.Restore(st.Weights); err != nil {
		return nil, err
	}
	return m, nil
}

// source is the training rng, which a loaded model creates when it first
// trains.
func (m *Model) source() *rand.Rand {
	if m.rng == nil {
		m.rng = rand.New(rand.NewSource(0))
	}
	return m.rng
}

// encodeResult caches the encoder pass for backprop or decoding. Its slices
// live in the workspace the pass ran in.
type encodeResult struct {
	caches []*nn.StackStep // per source position, for BPTT
	top    [][]float64     // top-layer hidden per source position
	proj   [][]float64     // attention's decode-invariant projection of top
	final  *nn.StackState
}

func (m *Model) encode(src []int, train bool, ws *nn.Workspace) encodeResult {
	res := encodeResult{caches: ws.StackSteps(len(src)), top: ws.Vecs(len(src))}
	st := m.enc.ZeroStateWS(ws)
	var rng *rand.Rand
	if train {
		rng = m.source()
	}
	top := m.enc.Layers() - 1
	for i, tok := range src {
		st, res.caches[i] = m.enc.StepWS(ws, st, m.srcEmb.Lookup(m.clampSrc(tok)), rng)
		res.top[i] = st.H[top]
	}
	res.final = st
	res.proj = m.attn.ProjectEnc(ws, res.top)
	return res
}

func (m *Model) clampSrc(tok int) int {
	if tok < 0 || tok >= m.cfg.SrcVocab {
		return UnkID
	}
	return tok
}

func (m *Model) clampTgt(tok int) int {
	if tok < 0 || tok >= m.cfg.TgtVocab {
		return UnkID
	}
	return tok
}

// ErrEmptySequence is returned when a training pair has an empty side.
var ErrEmptySequence = errors.New("nmt: empty source or target sequence")

// TrainExample performs forward+backward on one (src, tgt) pair, accumulating
// gradients, and returns the summed token cross-entropy and token count. The
// caller batches examples and applies the optimiser step.
func (m *Model) TrainExample(src, tgt []int) (loss float64, tokens int, err error) {
	return m.TrainExampleContext(context.Background(), src, tgt)
}

// TrainExampleContext is TrainExample with cancellation: the context is
// checked before the forward and before the backward pass, so a cancelled
// training run stops within an example rather than only between optimiser
// steps. The checks never consume model RNG, so a run under a background
// context is bit-identical to one under an ignored live context.
func (m *Model) TrainExampleContext(ctx context.Context, src, tgt []int) (loss float64, tokens int, err error) {
	if len(src) == 0 || len(tgt) == 0 {
		return 0, 0, ErrEmptySequence
	}
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	m.params.AllocGrad()
	ws := getWS()
	defer putWS(ws)
	enc := m.encode(src, true, ws)

	// Teacher forcing: input  = <s>, t1 … tn
	//                  target = t1 … tn, </s>
	n := len(tgt) + 1
	inputs := ws.Ints(n)
	targets := ws.Ints(n)
	inputs[0] = BosID
	for i, tok := range tgt {
		c := m.clampTgt(tok)
		inputs[i+1] = c
		targets[i] = c
	}
	targets[n-1] = EosID

	st := enc.final.CloneWS(ws)
	decCaches := ws.StackSteps(n)
	attnSteps := ws.AttnSteps(n)
	probs := ws.Vecs(n)
	logits := ws.Vec(m.cfg.TgtVocab)
	decTop := m.dec.Layers() - 1
	for t, tok := range inputs {
		st, decCaches[t] = m.dec.StepWS(ws, st, m.tgtEmb.Lookup(tok), m.source())
		attnSteps[t] = m.attn.ForwardWS(ws, enc.top, enc.proj, st.H[decTop])
		m.out.Forward(logits, attnSteps[t].HTilde)
		p := ws.Vec(m.cfg.TgtVocab)
		mat.Softmax(p, logits)
		probs[t] = p
		loss += -math.Log(math.Max(p[targets[t]], 1e-12))
	}

	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}

	// Backward pass, walking the decoder in reverse time order.
	dEnc := ws.Vecs(len(src))
	for i := range dEnc {
		dEnc[i] = ws.Vec(m.cfg.Hidden)
	}
	carry := m.dec.ZeroGradStateWS(ws)
	for t := n - 1; t >= 0; t-- {
		// d logits = p − one_hot(target). probs[t] is not read again, so the
		// subtraction happens in place instead of on a copy.
		dLogits := probs[t]
		dLogits[targets[t]] -= 1
		dHTilde := ws.Vec(m.cfg.Hidden)
		m.out.Backward(dHTilde, attnSteps[t].HTilde, dLogits)

		dTop := ws.Vec(m.cfg.Hidden)
		m.attn.BackwardWS(ws, attnSteps[t], dHTilde, dTop, dEnc)

		dx := ws.Vec(m.cfg.Embed)
		m.dec.StepBackwardWS(ws, decCaches[t], dTop, carry, dx)
		m.tgtEmb.Backward(inputs[t], dx)
	}

	// The decoder's initial state is the encoder's final state: the leftover
	// carry flows into the encoder BPTT below at the last source step.
	encCarry := m.enc.ZeroGradStateWS(ws)
	for l := 0; l < m.enc.Layers(); l++ {
		copy(encCarry.DH[l], carry.DH[l])
		copy(encCarry.DC[l], carry.DC[l])
	}
	for t := len(src) - 1; t >= 0; t-- {
		dx := ws.Vec(m.cfg.Embed)
		m.enc.StepBackwardWS(ws, enc.caches[t], dEnc[t], encCarry, dx)
		m.srcEmb.Backward(m.clampSrc(src[t]), dx)
	}
	return loss, n, nil
}

// TrainResult summarises a Train run.
type TrainResult struct {
	Steps     int
	FinalLoss float64 // mean per-token cross-entropy over the last step's batch
}

// Train runs cfg.TrainSteps optimiser steps over the aligned corpus
// (src[i] translates to tgt[i]), sampling batches with the model RNG.
func (m *Model) Train(src, tgt [][]int) (TrainResult, error) {
	return m.TrainContext(context.Background(), src, tgt)
}

// TrainContext is Train with cancellation: the context is checked at every
// optimiser step and inside every example, so cancelling mid-run returns
// ctx.Err() promptly — within a pair, not only between pairs. The partial
// TrainResult reports how many steps completed before cancellation.
func (m *Model) TrainContext(ctx context.Context, src, tgt [][]int) (TrainResult, error) {
	if len(src) != len(tgt) {
		return TrainResult{}, fmt.Errorf("nmt: corpus sides differ: %d vs %d", len(src), len(tgt))
	}
	if len(src) == 0 {
		return TrainResult{}, ErrEmptySequence
	}
	var res TrainResult
	for step := 0; step < m.cfg.TrainSteps; step++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		m.params.ZeroGrad()
		var lossSum float64
		var tokens int
		for b := 0; b < m.cfg.BatchSize; b++ {
			i := m.source().Intn(len(src))
			if len(src[i]) == 0 || len(tgt[i]) == 0 {
				continue
			}
			l, n, err := m.TrainExampleContext(ctx, src[i], tgt[i])
			if err != nil {
				return res, err
			}
			lossSum += l
			tokens += n
		}
		if tokens == 0 {
			return res, ErrEmptySequence
		}
		// Average the batch gradient so the learning rate is batch-size
		// independent.
		scale := 1 / float64(tokens)
		for _, prm := range m.params.All() {
			mat.Scale(scale, prm.Grad.Data)
		}
		m.params.ClipGrad(m.cfg.ClipNorm)
		m.opt.Step(&m.params)
		// Weights just changed; any memoised greedy decode or score is stale.
		m.cache.Drop()
		res.Steps++
		res.FinalLoss = lossSum / float64(tokens)
	}
	return res, nil
}

// translateShared is the cached greedy decode ScoreCorpus scores the dev set
// with, so a pair's dev translations are still cached when it starts serving
// (infer.FromModel shares this cache). A hit is decoded into dst's storage
// (cached=true); a miss returns the fresh decode. Either way the caller owns
// the result: the cache keeps its own packed copy.
func (m *Model) translateShared(dst, src []int) (hyp []int, cached bool) {
	if len(src) == 0 {
		return dst[:0], false
	}
	if hyp, ok := m.cache.Lookup(src, dst); ok {
		return hyp, true
	}
	out := m.Decode(src)
	m.cache.Store(src, out)
	return out, false
}

// Cache returns the model's translation cache and score memo, which
// infer.FromModel serves through. It is dropped whenever the weights change.
func (m *Model) Cache() *TransCache { return &m.cache }

// Decode greedily decodes the source sentence, uncached, and returns target
// token ids (without BOS/EOS) in a fresh slice. Decoding stops at EOS or
// cfg.MaxDecodeLen; an empty source decodes to nil.
func (m *Model) Decode(src []int) []int {
	if len(src) == 0 {
		return nil
	}
	ws := getWS()
	defer putWS(ws)
	enc := m.encode(src, false, ws)
	st := enc.final.CloneWS(ws)
	tok := BosID
	out := make([]int, 0, m.cfg.MaxDecodeLen)
	logits := ws.Vec(m.cfg.TgtVocab)
	decTop := m.dec.Layers() - 1
	for t := 0; t < m.cfg.MaxDecodeLen; t++ {
		st, _ = m.dec.StepWS(ws, st, m.tgtEmb.Lookup(tok), nil)
		attn := m.attn.ForwardWS(ws, enc.top, enc.proj, st.H[decTop])
		m.out.Forward(logits, attn.HTilde)
		// Never emit BOS; treat it as masked out.
		logits[BosID] = math.Inf(-1)
		tok = mat.ArgMax(logits)
		if tok == EosID {
			break
		}
		out = append(out, tok)
	}
	return out
}

// Perplexity returns exp(mean token cross-entropy) of the model on an
// aligned corpus without updating weights.
func (m *Model) Perplexity(src, tgt [][]int) (float64, error) {
	if len(src) != len(tgt) {
		return 0, fmt.Errorf("nmt: corpus sides differ: %d vs %d", len(src), len(tgt))
	}
	var lossSum float64
	var tokens int
	for i := range src {
		if len(src[i]) == 0 || len(tgt[i]) == 0 {
			continue
		}
		l, n := m.scoreExample(src[i], tgt[i])
		lossSum += l
		tokens += n
	}
	if tokens == 0 {
		return 0, ErrEmptySequence
	}
	return math.Exp(lossSum / float64(tokens)), nil
}

// scoreExample computes the teacher-forced cross-entropy without gradients.
func (m *Model) scoreExample(src, tgt []int) (float64, int) {
	ws := getWS()
	defer putWS(ws)
	enc := m.encode(src, false, ws)
	st := enc.final.CloneWS(ws)
	n := len(tgt) + 1
	inputs := ws.Ints(n)
	targets := ws.Ints(n)
	inputs[0] = BosID
	for i, tok := range tgt {
		c := m.clampTgt(tok)
		inputs[i+1] = c
		targets[i] = c
	}
	targets[n-1] = EosID
	var loss float64
	logits := ws.Vec(m.cfg.TgtVocab)
	p := ws.Vec(m.cfg.TgtVocab)
	decTop := m.dec.Layers() - 1
	for t, tok := range inputs {
		st, _ = m.dec.StepWS(ws, st, m.tgtEmb.Lookup(tok), nil)
		attn := m.attn.ForwardWS(ws, enc.top, enc.proj, st.H[decTop])
		m.out.Forward(logits, attn.HTilde)
		mat.Softmax(p, logits)
		loss += -math.Log(math.Max(p[targets[t]], 1e-12))
	}
	return loss, n
}
