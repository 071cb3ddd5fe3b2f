// Package infer is the scoring engine for trained NMT pair models, at every
// precision. Training stays float64 (internal/nmt). At publish time a model
// becomes an engine: FromModel serves the float64 training model as it is
// (F64), and FromState freezes its weights into float32 (GEMM weights stored
// pre-transposed) or int8 (row-quantized with per-row scales). Scoring runs
// through ScoreBatch, which answers what the score memo holds and decodes
// the rest: each distinct source once, and at f32/int8 many sentences against
// one pair model in GEMM calls over pooled workspaces.
//
// Two invariants make batching safe to deploy:
//
//   - Batched == single, bit for bit. Every kernel is row-independent, so a
//     sentence scored in a batch of 64 gets exactly the score it gets alone
//     (TestScoreBatchMatchesSingle): offline Detect's chunked ScoreBatch and
//     a stream's per-job ScoreSentence agree.
//   - Reduced precision preserves the BLEU ranking. f32/int8 scores differ
//     from float64 in low-order digits; flagged-day parity on the golden
//     quick-plant trajectory is asserted by internal/experiments.
package infer

import (
	"fmt"
	"math"

	"mdes/internal/mat"
	"mdes/internal/nmt"
)

// Precision selects the numeric format of an engine. The zero value F64
// decodes with the float64 training model itself (FromModel), the paper's
// reference path; F32 and Int8 are the frozen formats (FromState).
type Precision int

const (
	F64 Precision = iota
	F32
	Int8
)

// String names the precision the way the -score-precision flag spells it.
func (p Precision) String() string {
	switch p {
	case F64:
		return "f64"
	case F32:
		return "f32"
	case Int8:
		return "int8"
	default:
		return fmt.Sprintf("precision(%d)", int(p))
	}
}

// ParsePrecision parses the -score-precision flag values.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "f64", "float64":
		return F64, nil
	case "f32", "float32":
		return F32, nil
	case "int8", "q8":
		return Int8, nil
	default:
		return 0, fmt.Errorf("infer: unknown precision %q (want f64, f32, or int8)", s)
	}
}

// weight is one frozen GEMM weight in the active precision. Exactly one of
// t/q is set: float32 weights are stored pre-transposed (in×out) so batched
// products Y = X·Wᵀ stream rows of both operands; int8 weights stay out×in
// because the integer kernel is row-dot-shaped and its per-row scales align
// with output channels.
type weight struct {
	out, in int
	t       *mat.Matrix32
	q       *mat.MatrixQ8
}

// bytes reports the resident size of the frozen weight.
func (w *weight) bytes() int {
	if w.q != nil {
		return len(w.q.Data) + 4*len(w.q.Scales)
	}
	if w.t != nil {
		return 4 * len(w.t.Data)
	}
	return 0
}

// cell is one frozen LSTM layer.
type cell struct {
	wx, wh  weight
	b       []float32
	in, hid int
}

// stack is one frozen LSTM stack with the token embedding that feeds it.
// Layer 0 sees only emb[tok] for tok < vocab, so its input projection
// emb[tok]·Wxᵀ can be frozen too, as a vocab×4h table (in0). FromState builds
// the table when it is no larger than the embedding plus the layer-0 Wx it
// replaces, and then drops those two: emb is nil and cells[0].wx empty.
type stack struct {
	vocab int
	emb   *mat.Matrix32 // vocab×embed, float32 in both precisions; or nil
	in0   *mat.Matrix32 // vocab×4h layer-0 input projections; or nil
	cells []cell
}

// tabulate freezes st's layer-0 input projection into in0 if the table is no
// larger than what it replaces. The rows come out of the same mulInto the
// decode would run on the embedding rows, and every GEMM kernel is
// row-independent, so a table row is bit for bit the per-step product — under
// the kernels active now (mat.SetSIMD is a process-wide switch: flip it before
// freezing, not after).
func (m *Model) tabulate(st *stack) {
	c := &st.cells[0]
	if 4*st.vocab*4*c.hid > 4*len(st.emb.Data)+c.wx.bytes() {
		return
	}
	st.in0 = mat.NewMatrix32(st.vocab, 4*c.hid)
	m.mulInto(newWS(), st.in0, st.emb, &c.wx, false)
	st.emb, c.wx = nil, weight{}
}

// bytes reports the resident size of the stack's frozen tensors.
func (st *stack) bytes() int {
	total := 0
	if st.emb != nil {
		total += 4 * len(st.emb.Data)
	}
	if st.in0 != nil {
		total += 4 * len(st.in0.Data)
	}
	for i := range st.cells {
		c := &st.cells[i]
		total += c.wx.bytes() + c.wh.bytes() + 4*len(c.b)
	}
	return total
}

// clamp maps an out-of-vocabulary token to <unk>.
func (st *stack) clamp(tok int) int {
	if tok < 0 || tok >= st.vocab {
		return nmt.UnkID
	}
	return tok
}

// Model is a scoring engine built from a trained nmt.Model. It scores; it
// never trains. Safe for concurrent use.
type Model struct {
	cfg  nmt.Config
	prec Precision
	f64  *nmt.Model // the decoder at F64; the frozen tensors below are unset

	enc, dec stack  // source- and target-side
	wa       weight // h×h attention bilinear form
	wc       weight // h×2h combine projection
	wcB      []float32
	outW     weight // V×h output projection
	outB     []float32

	// cache memoises greedy decodes per source sentence and scores per
	// sentence pair: the engine's own when frozen, the training model's at F64.
	cache *nmt.TransCache
}

// FromModel serves a trained model as an F64 engine. It decodes with the
// model's own greedy decode (nmt.Model.Decode) through the model's own cache
// (nmt.Model.Cache), so its scores are nmt.ScoreSentence's bit for bit and
// the dev-set translations training cached answer it from the start. The
// model must not train while the engine serves.
func FromModel(nm *nmt.Model) *Model {
	return &Model{cfg: nm.Config(), prec: F64, f64: nm, cache: nm.Cache()}
}

// FromState freezes a trained model snapshot into an engine at the given
// precision (F32 or Int8; F64 engines come from FromModel), walking the
// architecture cfg implies. The frozen weights are a pure function of the
// snapshot, so a model file stores only the float64 weights and the
// precision to freeze them at.
func FromState(st nmt.State, prec Precision) (*Model, error) {
	if prec != F32 && prec != Int8 {
		return nil, fmt.Errorf("infer: FromState freezes f32 or int8, not %v", prec)
	}
	cfg := st.Config
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := freezer{weights: st.Weights, prec: prec}
	m := &Model{cfg: cfg, prec: prec, cache: new(nmt.TransCache)}
	m.enc = stack{vocab: cfg.SrcVocab, emb: f.f32Mat("src_emb", cfg.SrcVocab, cfg.Embed)}
	m.dec = stack{vocab: cfg.TgtVocab, emb: f.f32Mat("tgt_emb", cfg.TgtVocab, cfg.Embed)}
	h := cfg.Hidden
	for _, s := range []struct {
		name string
		st   *stack
	}{{"enc", &m.enc}, {"dec", &m.dec}} {
		s.st.cells = make([]cell, cfg.Layers)
		for l := range s.st.cells {
			in := cfg.Embed
			if l > 0 {
				in = h
			}
			prefix := fmt.Sprintf("%s.l%d", s.name, l)
			s.st.cells[l] = cell{
				in: in, hid: h,
				wx: f.gemm(prefix+".Wx", 4*h, in),
				wh: f.gemm(prefix+".Wh", 4*h, h),
				b:  f.f32Vec(prefix+".b", 4*h),
			}
		}
	}
	m.wa = f.gemm("attn.Wa", h, h)
	m.wc = f.gemm("attn.Wc.W", h, 2*h)
	m.wcB = f.f32Vec("attn.Wc.b", h)
	m.outW = f.gemm("out.W", cfg.TgtVocab, h)
	m.outB = f.f32Vec("out.b", cfg.TgtVocab)
	if f.err == nil && f.used != len(f.weights) {
		f.err = fmt.Errorf("infer: model state has %d weights, architecture uses %d", len(f.weights), f.used)
	}
	if f.err != nil {
		return nil, f.err
	}
	m.tabulate(&m.enc)
	m.tabulate(&m.dec)
	return m, nil
}

// freezer converts named float64 training weights into the target precision.
// It keeps the first error and returns zero values from then on, so FromState
// reads as the architecture it walks.
type freezer struct {
	weights map[string][]float64
	prec    Precision
	used    int
	err     error
}

// fetch returns the rows×cols training weight registered under name, or nil
// after recording why it cannot.
func (f *freezer) fetch(name string, rows, cols int) *mat.Matrix {
	if f.err != nil {
		return nil
	}
	data, ok := f.weights[name]
	switch {
	case !ok:
		f.err = fmt.Errorf("infer: weight %q missing from model state", name)
	case len(data) != rows*cols:
		f.err = fmt.Errorf("infer: weight %q has %d elements, want %d", name, len(data), rows*cols)
	default:
		f.used++
		return mat.FromSlice(rows, cols, data)
	}
	return nil
}

// gemm freezes the out×in GEMM weight registered under name.
func (f *freezer) gemm(name string, out, in int) weight {
	w := weight{out: out, in: in}
	if src := f.fetch(name, out, in); src != nil {
		if f.prec == Int8 {
			w.q = mat.QuantizeQ8(src)
		} else {
			w.t = src.T32()
		}
	}
	return w
}

// f32Mat narrows a rows×cols matrix (an embedding table).
func (f *freezer) f32Mat(name string, rows, cols int) *mat.Matrix32 {
	if src := f.fetch(name, rows, cols); src != nil {
		return src.To32()
	}
	return nil
}

// f32Vec narrows a length-n vector (a bias).
func (f *freezer) f32Vec(name string, n int) []float32 {
	if src := f.fetch(name, 1, n); src != nil {
		return src.To32().Data
	}
	return nil
}

// Precision reports the engine's numeric format.
func (m *Model) Precision() Precision { return m.prec }

// Config returns the underlying NMT configuration.
func (m *Model) Config() nmt.Config { return m.cfg }

// MemoryBytes reports the resident size of the weights the engine decodes
// with: at F64 the float64 weights, 8·ParamCount, which is all a served
// nmt.Model holds besides its cache (its gradients and Adam moments are gone
// once training ends; TestMemoryBytesIsResidentWeights weighs it on the
// heap); frozen, the frozen weights, input tables included (and the
// embeddings and layer-0 Wx they replaced excluded) — the number behind the
// ~4× model-memory reduction BenchmarkModelMemory reports. A table is built
// only where it does not grow this.
func (m *Model) MemoryBytes() int {
	if m.f64 != nil {
		return 8 * m.f64.ParamCount()
	}
	total := m.enc.bytes() + m.dec.bytes()
	total += 4 * (len(m.wcB) + len(m.outB))
	total += m.wa.bytes() + m.wc.bytes() + m.outW.bytes()
	return total
}

// SetTranslationCaching toggles the engine's translation cache and score
// memo (on by default; at F64 it is the training model's). Turning it off
// also drops everything cached.
func (m *Model) SetTranslationCaching(on bool) { m.cache.SetCaching(on) }

// mulInto computes dst = x·wᵀ (add=false) or dst += x·wᵀ (add=true) for a
// B×in activation matrix against a frozen out×in weight, dispatching on the
// weight's precision. The int8 path quantizes each activation row on the fly.
//
//mdes:noalloc
func (m *Model) mulInto(w *ws, dst, x *mat.Matrix32, wt *weight, add bool) {
	if wt.t != nil {
		if add {
			x.MulMatAdd(dst, wt.t)
		} else {
			x.MulMat(dst, wt.t)
		}
		return
	}
	b, n := x.Rows, x.Cols
	w.qbuf, w.qscales = mat.Resize(w.qbuf, b*n), mat.Resize(w.qscales, b)
	qbuf, qscales := w.qbuf, w.qscales
	for i := 0; i < b; i++ {
		qscales[i] = mat.QuantizeVec8(qbuf[i*n:(i+1)*n], x.Row(i))
	}
	if add {
		wt.q.MulMatQ8Add(dst, qbuf, qscales)
	} else {
		wt.q.MulMatQ8(dst, qbuf, qscales)
	}
}

var negInf32 = float32(math.Inf(-1))
