package nn

import (
	"math/rand"

	"mdes/internal/mat"
)

// AttentionKind selects Luong et al.'s three global-attention scoring
// functions.
type AttentionKind int

const (
	// AttentionGeneral scores with h_tᵀ·Wa·h̄_s (the paper's default).
	AttentionGeneral AttentionKind = iota + 1
	// AttentionDot scores with h_tᵀ·h̄_s (no parameters).
	AttentionDot
	// AttentionConcat scores with vᵀ·tanh(Wa·[h_t; h̄_s]).
	AttentionConcat
)

// String names the attention kind.
func (k AttentionKind) String() string {
	switch k {
	case AttentionGeneral:
		return "general"
	case AttentionDot:
		return "dot"
	case AttentionConcat:
		return "concat"
	default:
		return "unknown"
	}
}

// LuongAttention implements Luong et al.'s global attention: the decoder
// hidden state h_t is scored against every encoder state h̄_s (dot, general,
// or concat scoring), the scores are softmax-normalised into weights, the
// weighted context is concatenated with h_t and squashed through
// tanh(Wc·[c; h_t]) to yield the attentional hidden state h̃_t.
type LuongAttention struct {
	Kind   AttentionKind
	Wa     *Param  // general: H×H bilinear; concat: H×2H projection
	Va     *Param  // concat: 1×H scoring vector
	Wc     *Linear // combines [context; hidden] -> Hidden
	Hidden int
}

// NewLuongAttention registers the paper-default "general" attention.
func NewLuongAttention(p *Params, name string, hidden int, rng *rand.Rand) *LuongAttention {
	return NewLuongAttentionKind(p, name, hidden, AttentionGeneral, rng)
}

// NewLuongAttentionKind registers attention with an explicit scoring kind.
func NewLuongAttentionKind(p *Params, name string, hidden int, kind AttentionKind, rng *rand.Rand) *LuongAttention {
	a := &LuongAttention{
		Kind:   kind,
		Wc:     NewLinear(p, name+".Wc", 2*hidden, hidden, rng),
		Hidden: hidden,
	}
	switch kind {
	case AttentionGeneral:
		a.Wa = p.New(name+".Wa", hidden, hidden)
		a.Wa.W.XavierFill(rng)
	case AttentionConcat:
		a.Wa = p.New(name+".Wa", hidden, 2*hidden)
		a.Wa.W.XavierFill(rng)
		a.Va = p.New(name+".va", 1, hidden)
		a.Va.W.UniformFill(rng, 0.1)
	case AttentionDot:
		// no scoring parameters
	default:
		panic("nn: unknown attention kind")
	}
	return a
}

// AttnStep caches one attention application for backprop.
type AttnStep struct {
	Enc     [][]float64 // encoder top-layer states (referenced)
	H       []float64   // decoder hidden input (referenced)
	WaEnc   [][]float64 // general: Wa·h̄_s per source position (referenced)
	Pair    [][]float64 // concat: [h; h̄_s] per source position
	TanhPre [][]float64 // concat: tanh(Wa·[h; h̄_s]) per source position
	Weights []float64   // softmax attention weights
	Ctx     []float64
	Concat  []float64
	HTilde  []float64
}

// ProjectEnc returns the part of the attention scores that depends on the
// encoder alone: for the general kind Wa·h̄_s per source position, which no
// decoder step changes. Compute it once per encoded sentence and hand it to
// every ForwardWS over that sentence; the steps share the slices. The dot and
// concat kinds have nothing decode-invariant to hoist and return nil.
func (a *LuongAttention) ProjectEnc(ws *Workspace, enc [][]float64) [][]float64 {
	if a.Kind != AttentionGeneral {
		return nil
	}
	waEnc := wsSlices(ws, len(enc))
	for s, es := range enc {
		waEnc[s] = wsVec(ws, a.Hidden)
		a.Wa.W.MulVec(waEnc[s], es)
	}
	return waEnc
}

// Forward computes the attentional hidden state h̃ for decoder hidden h over
// the encoder states enc (each of length Hidden). enc must be non-empty. It
// projects enc afresh; callers attending over one sentence repeatedly use
// ProjectEnc and ForwardWS.
func (a *LuongAttention) Forward(enc [][]float64, h []float64) *AttnStep {
	return a.ForwardWS(nil, enc, a.ProjectEnc(nil, enc), h)
}

// ForwardWS is Forward over an already projected sentence — waEnc must be
// ProjectEnc of this enc — with the weights/context/score buffers drawn from
// ws (nil ws allocates). The returned cache is valid until ws.Reset.
//
//mdes:noalloc
func (a *LuongAttention) ForwardWS(ws *Workspace, enc, waEnc [][]float64, h []float64) *AttnStep {
	checkLen("attention h", len(h), a.Hidden)
	n := len(enc)
	var st *AttnStep
	//mdes:allow(noalloc) nil-workspace fallback: the heap path serves only the WS-less compat API
	if ws == nil {
		st = &AttnStep{}
	} else {
		st = ws.attnStep()
	}
	st.Enc, st.H = enc, h
	st.Weights = wsVec(ws, n)
	st.Ctx = wsVec(ws, a.Hidden)
	st.Concat = wsVec(ws, 2*a.Hidden)
	st.HTilde = wsVec(ws, a.Hidden)
	scores := wsVec(ws, n)
	switch a.Kind {
	case AttentionDot:
		for s, es := range enc {
			scores[s] = mat.Dot(h, es)
		}
	case AttentionConcat:
		st.Pair = wsSlices(ws, n)
		st.TanhPre = wsSlices(ws, n)
		for s, es := range enc {
			pair := wsVec(ws, 2*a.Hidden)
			copy(pair[:a.Hidden], h)
			copy(pair[a.Hidden:], es)
			pre := wsVec(ws, a.Hidden)
			a.Wa.W.MulVec(pre, pair)
			mat.Tanh(pre)
			st.Pair[s] = pair
			st.TanhPre[s] = pre
			scores[s] = mat.Dot(a.Va.W.Data, pre)
		}
	default: // AttentionGeneral
		checkLen("attention waEnc", len(waEnc), n)
		st.WaEnc = waEnc
		for s, we := range waEnc {
			scores[s] = mat.Dot(h, we)
		}
	}
	mat.Softmax(st.Weights, scores)
	for s, es := range enc {
		mat.Axpy(st.Weights[s], es, st.Ctx)
	}
	copy(st.Concat[:a.Hidden], st.Ctx)
	copy(st.Concat[a.Hidden:], h)
	a.Wc.Forward(st.HTilde, st.Concat)
	mat.Tanh(st.HTilde)
	return st
}

// wsSlices returns a length-n slice of nil vectors from ws, or from the heap
// when ws is nil.
func wsSlices(ws *Workspace, n int) [][]float64 {
	if ws == nil {
		return make([][]float64, n)
	}
	return ws.Vecs(n)
}

// Backward backpropagates dL/dh̃. It accumulates parameter gradients, adds
// dL/dh into dh, and adds dL/dh̄_s into dEnc[s].
func (a *LuongAttention) Backward(st *AttnStep, dHTilde []float64, dh []float64, dEnc [][]float64) {
	a.BackwardWS(nil, st, dHTilde, dh, dEnc)
}

// BackwardWS is Backward with scratch buffers drawn from ws (nil allocates).
//
//mdes:noalloc
func (a *LuongAttention) BackwardWS(ws *Workspace, st *AttnStep, dHTilde []float64, dh []float64, dEnc [][]float64) {
	checkLen("attention dHTilde", len(dHTilde), a.Hidden)
	checkLen("attention dh", len(dh), a.Hidden)
	n := len(st.Enc)

	dPre := wsVec(ws, a.Hidden)
	for i, v := range dHTilde {
		dPre[i] = v * (1 - st.HTilde[i]*st.HTilde[i])
	}
	dConcat := wsVec(ws, 2*a.Hidden)
	a.Wc.Backward(dConcat, st.Concat, dPre)
	dCtx := dConcat[:a.Hidden]
	mat.Axpy(1, dConcat[a.Hidden:], dh)

	// Context is Σ w_s·h̄_s.
	dW := wsVec(ws, n)
	for s, es := range st.Enc {
		dW[s] = mat.Dot(dCtx, es)
		mat.Axpy(st.Weights[s], dCtx, dEnc[s])
	}

	// Softmax Jacobian: dScore_s = w_s (dW_s − Σ_k w_k dW_k).
	var mix float64
	for s, w := range st.Weights {
		mix += w * dW[s]
	}
	dScores := wsVec(ws, n)
	for s, w := range st.Weights {
		dScores[s] = w * (dW[s] - mix)
	}

	switch a.Kind {
	case AttentionDot:
		// score_s = hᵀ·h̄_s.
		for s, es := range st.Enc {
			g := dScores[s]
			if g == 0 {
				continue
			}
			mat.Axpy(g, es, dh)
			mat.Axpy(g, st.H, dEnc[s])
		}
	case AttentionConcat:
		// score_s = vᵀ·tanh(Wa·[h; h̄_s]).
		dPair := wsVec(ws, 2*a.Hidden)
		dPreBuf := wsVec(ws, a.Hidden)
		for s := range st.Enc {
			g := dScores[s]
			if g == 0 {
				continue
			}
			th := st.TanhPre[s]
			mat.Axpy(g, th, a.Va.Grad.Data)
			for i := range dPreBuf {
				dPreBuf[i] = g * a.Va.W.Data[i] * (1 - th[i]*th[i])
			}
			a.Wa.Grad.AddOuter(dPreBuf, st.Pair[s])
			a.Wa.W.MulVecT(dPair, dPreBuf)
			mat.Axpy(1, dPair[:a.Hidden], dh)
			mat.Axpy(1, dPair[a.Hidden:], dEnc[s])
		}
	default: // AttentionGeneral
		// score_s = hᵀ·(Wa·h̄_s).
		buf := wsVec(ws, a.Hidden)
		for s, es := range st.Enc {
			g := dScores[s]
			if g == 0 {
				continue
			}
			mat.Axpy(g, st.WaEnc[s], dh)
			gh := scaled(buf, g, st.H)
			a.Wa.Grad.AddOuter(gh, es)
			a.Wa.W.MulVecTAdd(dEnc[s], gh)
		}
	}
}

// scaled writes g*x into buf and returns buf.
func scaled(buf []float64, g float64, x []float64) []float64 {
	for i, v := range x {
		buf[i] = g * v
	}
	return buf
}
