package nn

import (
	"math/rand"

	"mdes/internal/mat"
)

// LuongAttention implements Luong et al.'s global attention with "general"
// scoring, the paper's choice: the decoder hidden state h_t is scored against
// every encoder state h̄_s as h_tᵀ·Wa·h̄_s, the scores are softmax-normalised
// into weights, the weighted context is concatenated with h_t and squashed
// through tanh(Wc·[c; h_t]) to yield the attentional hidden state h̃_t.
type LuongAttention struct {
	Wa     *Param  // H×H bilinear form
	Wc     *Linear // combines [context; hidden] -> Hidden
	Hidden int
}

// NewLuongAttention registers the attention layer's parameters.
func NewLuongAttention(p *Params, name string, hidden int, rng *rand.Rand) *LuongAttention {
	a := &LuongAttention{
		Wc:     NewLinear(p, name+".Wc", 2*hidden, hidden, rng),
		Wa:     p.New(name+".Wa", hidden, hidden),
		Hidden: hidden,
	}
	if rng != nil {
		a.Wa.W.XavierFill(rng)
	}
	return a
}

// AttnStep caches one attention application for backprop.
type AttnStep struct {
	Enc     [][]float64 // encoder top-layer states (referenced)
	H       []float64   // decoder hidden input (referenced)
	WaEnc   [][]float64 // Wa·h̄_s per source position (referenced)
	Weights []float64   // softmax attention weights
	Ctx     []float64
	Concat  []float64
	HTilde  []float64
}

// ProjectEnc returns the part of the attention scores that depends on the
// encoder alone: Wa·h̄_s per source position, which no decoder step changes.
// Compute it once per encoded sentence and hand it to every ForwardWS over
// that sentence; the steps share the slices.
func (a *LuongAttention) ProjectEnc(ws *Workspace, enc [][]float64) [][]float64 {
	waEnc := ws.Vecs(len(enc))
	for s, es := range enc {
		waEnc[s] = ws.Vec(a.Hidden)
		a.Wa.W.MulVec(waEnc[s], es)
	}
	return waEnc
}

// ForwardWS computes the attentional hidden state h̃ for decoder hidden h over
// the encoder states enc (non-empty, each of length Hidden) and their
// projection waEnc — which must be ProjectEnc of this enc — with the
// weights/context/score buffers drawn from ws. The returned cache is valid
// until ws.Reset.
//
//mdes:noalloc
func (a *LuongAttention) ForwardWS(ws *Workspace, enc, waEnc [][]float64, h []float64) *AttnStep {
	checkLen("attention h", len(h), a.Hidden)
	n := len(enc)
	checkLen("attention waEnc", len(waEnc), n)
	st := ws.attnStep()
	st.Enc, st.H, st.WaEnc = enc, h, waEnc
	st.Weights = ws.Vec(n)
	st.Ctx = ws.Vec(a.Hidden)
	st.Concat = ws.Vec(2 * a.Hidden)
	st.HTilde = ws.Vec(a.Hidden)
	scores := ws.Vec(n)
	for s, we := range waEnc {
		scores[s] = mat.Dot(h, we)
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

// BackwardWS backpropagates dL/dh̃ with scratch buffers drawn from ws. It
// accumulates parameter gradients, adds dL/dh into dh, and adds dL/dh̄_s into
// dEnc[s].
//
//mdes:noalloc
func (a *LuongAttention) BackwardWS(ws *Workspace, st *AttnStep, dHTilde []float64, dh []float64, dEnc [][]float64) {
	checkLen("attention dHTilde", len(dHTilde), a.Hidden)
	checkLen("attention dh", len(dh), a.Hidden)
	n := len(st.Enc)

	dPre := ws.Vec(a.Hidden)
	for i, v := range dHTilde {
		dPre[i] = v * (1 - st.HTilde[i]*st.HTilde[i])
	}
	dConcat := ws.Vec(2 * a.Hidden)
	a.Wc.Backward(dConcat, st.Concat, dPre)
	dCtx := dConcat[:a.Hidden]
	mat.Axpy(1, dConcat[a.Hidden:], dh)

	// Context is Σ w_s·h̄_s.
	dW := ws.Vec(n)
	for s, es := range st.Enc {
		dW[s] = mat.Dot(dCtx, es)
		mat.Axpy(st.Weights[s], dCtx, dEnc[s])
	}

	// Softmax Jacobian: dScore_s = w_s (dW_s − Σ_k w_k dW_k).
	var mix float64
	for s, w := range st.Weights {
		mix += w * dW[s]
	}
	dScores := ws.Vec(n)
	for s, w := range st.Weights {
		dScores[s] = w * (dW[s] - mix)
	}

	// score_s = hᵀ·(Wa·h̄_s).
	buf := ws.Vec(a.Hidden)
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

// scaled writes g*x into buf and returns buf.
func scaled(buf []float64, g float64, x []float64) []float64 {
	for i, v := range x {
		buf[i] = g * v
	}
	return buf
}
