package nn

import (
	"math"
	"math/rand"
	"strconv"

	"mdes/internal/mat"
)

// LSTMCell is a single LSTM layer applied one timestep at a time. Gate order
// inside the packed 4H vectors is input, forget, candidate, output.
type LSTMCell struct {
	Wx, Wh, B  *Param
	In, Hidden int
}

// NewLSTMCell registers one LSTM layer's parameters, with Xavier weights
// drawn from rng (zero when rng is nil). The forget-gate bias is initialised
// to 1 so early training does not erase cell state.
func NewLSTMCell(p *Params, name string, in, hidden int, rng *rand.Rand) *LSTMCell {
	c := &LSTMCell{
		Wx: p.New(name+".Wx", 4*hidden, in),
		Wh: p.New(name+".Wh", 4*hidden, hidden),
		B:  p.New(name+".b", 1, 4*hidden),
		In: in, Hidden: hidden,
	}
	if rng != nil {
		c.Wx.W.XavierFill(rng)
		c.Wh.W.XavierFill(rng)
	}
	for j := hidden; j < 2*hidden; j++ {
		c.B.W.Data[j] = 1
	}
	return c
}

// LSTMStep caches one timestep's forward activations for backprop.
type LSTMStep struct {
	X, HPrev, CPrev []float64
	I, F, G, O      []float64 // post-activation gates
	C, TanhC, H     []float64
}

// StepWS runs one timestep, drawing the gate and state buffers from ws. hPrev
// and cPrev must have length Hidden; x length In. The returned cache and its
// buffers are valid until ws.Reset (inputs are referenced, not copied).
//
//mdes:noalloc
func (l *LSTMCell) StepWS(ws *Workspace, x, hPrev, cPrev []float64) *LSTMStep {
	checkLen("lstm x", len(x), l.In)
	checkLen("lstm hPrev", len(hPrev), l.Hidden)
	checkLen("lstm cPrev", len(cPrev), l.Hidden)

	h := l.Hidden
	gates := ws.Vec(4 * h)
	l.Wx.W.MulVec(gates, x)
	l.Wh.W.MulVecAdd(gates, hPrev)
	mat.Axpy(1, l.B.W.Data, gates)

	st := ws.steps.New()
	state := ws.Vec(3 * h)
	st.X, st.HPrev, st.CPrev = x, hPrev, cPrev
	st.I, st.F, st.G, st.O = gates[0:h], gates[h:2*h], gates[2*h:3*h], gates[3*h:4*h]
	st.C, st.TanhC, st.H = state[0:h], state[h:2*h], state[2*h:3*h]
	mat.SigTanhGates(gates, h)
	for j := 0; j < h; j++ {
		st.C[j] = st.F[j]*cPrev[j] + st.I[j]*st.G[j]
		st.TanhC[j] = math.Tanh(st.C[j])
		st.H[j] = st.O[j] * st.TanhC[j]
	}
	return st
}

// StepBackwardWS backpropagates one timestep, its gate-gradient scratch drawn
// from ws. dh and dc are dL/dH and dL/dC for this step (dc includes any carry
// from step t+1). It accumulates parameter gradients and writes dL/dx into dx
// (accumulated), returning dhPrev and dcPrev to carry to step t-1 (written
// into the provided buffers).
//
//mdes:noalloc
func (l *LSTMCell) StepBackwardWS(ws *Workspace, st *LSTMStep, dh, dc, dx, dhPrev, dcPrev []float64) {
	h := l.Hidden
	checkLen("lstm dh", len(dh), h)
	checkLen("lstm dc", len(dc), h)
	checkLen("lstm dx", len(dx), l.In)
	checkLen("lstm dhPrev", len(dhPrev), h)
	checkLen("lstm dcPrev", len(dcPrev), h)

	dGates := ws.Vec(4 * h)
	dI, dF, dG, dO := dGates[0:h], dGates[h:2*h], dGates[2*h:3*h], dGates[3*h:4*h]
	for j := 0; j < h; j++ {
		dcj := dc[j] + dh[j]*st.O[j]*(1-st.TanhC[j]*st.TanhC[j])
		doj := dh[j] * st.TanhC[j]
		dij := dcj * st.G[j]
		dgj := dcj * st.I[j]
		dfj := dcj * st.CPrev[j]
		dcPrev[j] = dcj * st.F[j]

		// Chain through the gate nonlinearities (sigmoid / tanh).
		dI[j] = dij * st.I[j] * (1 - st.I[j])
		dF[j] = dfj * st.F[j] * (1 - st.F[j])
		dG[j] = dgj * (1 - st.G[j]*st.G[j])
		dO[j] = doj * st.O[j] * (1 - st.O[j])
	}

	l.Wx.Grad.AddOuter(dGates, st.X)
	l.Wh.Grad.AddOuter(dGates, st.HPrev)
	mat.Axpy(1, dGates, l.B.Grad.Data)
	l.Wx.W.MulVecTAdd(dx, dGates)
	l.Wh.W.MulVecT(dhPrev, dGates)
}

// StackedLSTM runs L LSTM layers per timestep with optional dropout between
// layers (inverted dropout, applied only when a dropout RNG is supplied).
type StackedLSTM struct {
	Cells   []*LSTMCell
	Dropout float64
}

// NewStackedLSTM registers layers LSTM cells: the first consumes `in`-dim
// inputs, the rest consume `hidden`.
func NewStackedLSTM(p *Params, name string, layers, in, hidden int, dropout float64, rng *rand.Rand) *StackedLSTM {
	s := &StackedLSTM{Dropout: dropout, Cells: make([]*LSTMCell, 0, layers)}
	dim := in
	for i := 0; i < layers; i++ {
		s.Cells = append(s.Cells, NewLSTMCell(p, nameLayer(name, i), dim, hidden, rng))
		dim = hidden
	}
	return s
}

// nameLayer names layer i of a stack. strconv.Itoa, not string(rune('0'+i)):
// the rune form yields ":"/";"/… for layers past 9, colliding with nothing
// today but producing garbage parameter names in snapshots.
func nameLayer(name string, i int) string { return name + ".l" + strconv.Itoa(i) }

// Hidden returns the hidden width of the stack.
func (s *StackedLSTM) Hidden() int { return s.Cells[0].Hidden }

// Layers returns the number of stacked cells.
func (s *StackedLSTM) Layers() int { return len(s.Cells) }

// StackState is the per-timestep hidden/cell state of every layer.
type StackState struct {
	H, C [][]float64
}

// ZeroStateWS returns an all-zero stack state drawn from ws.
func (s *StackedLSTM) ZeroStateWS(ws *Workspace) *StackState {
	st := ws.stackState(len(s.Cells))
	for i, c := range s.Cells {
		st.H[i] = ws.Vec(c.Hidden)
		st.C[i] = ws.Vec(c.Hidden)
	}
	return st
}

// CloneWS deep-copies a stack state into workspace memory.
func (st *StackState) CloneWS(ws *Workspace) *StackState {
	out := ws.stackState(len(st.H))
	for i := range st.H {
		h := ws.Vec(len(st.H[i]))
		copy(h, st.H[i])
		out.H[i] = h
		c := ws.Vec(len(st.C[i]))
		copy(c, st.C[i])
		out.C[i] = c
	}
	return out
}

// StackStep caches one timestep of the whole stack.
type StackStep struct {
	Steps []*LSTMStep
	// dropMasks[i] is the inverted-dropout mask applied to the input of
	// layer i+1 (nil when dropout is off for this step).
	dropMasks [][]float64
	// dropped[i] is the masked input actually fed to layer i+1.
	dropped [][]float64
}

// StepWS advances every layer one timestep from state st with input x,
// returning the new state and the cache; every per-timestep buffer (gates,
// states, dropout masks, caches) is drawn from ws. When rng is non-nil and
// Dropout>0, inverted dropout is applied between layers (training mode); a
// nil rng disables dropout (inference mode).
//
//mdes:noalloc
func (s *StackedLSTM) StepWS(ws *Workspace, st *StackState, x []float64, rng *rand.Rand) (*StackState, *StackStep) {
	next := ws.stackState(len(s.Cells))
	cache := ws.stackStep(len(s.Cells))
	input := x
	for i, cell := range s.Cells {
		if i > 0 && s.Dropout > 0 && rng != nil {
			mask := ws.Vec(len(input))
			masked := ws.Vec(len(input))
			keep := 1 - s.Dropout
			for j := range input {
				if rng.Float64() < keep {
					mask[j] = 1 / keep
				}
				masked[j] = input[j] * mask[j]
			}
			cache.dropMasks[i] = mask
			cache.dropped[i] = masked
			input = masked
		}
		step := cell.StepWS(ws, input, st.H[i], st.C[i])
		cache.Steps[i] = step
		next.H[i] = step.H
		next.C[i] = step.C
		input = step.H
	}
	return next, cache
}

// StackGrad carries dL/dH and dL/dC per layer while walking backwards in time.
type StackGrad struct {
	DH, DC [][]float64
}

// ZeroGradStateWS returns an all-zero backward carry drawn from ws.
func (s *StackedLSTM) ZeroGradStateWS(ws *Workspace) *StackGrad {
	g := ws.stackGrad(len(s.Cells))
	for i, c := range s.Cells {
		g.DH[i] = ws.Vec(c.Hidden)
		g.DC[i] = ws.Vec(c.Hidden)
	}
	return g
}

// StepBackwardWS backpropagates one timestep of the stack, all per-step
// gradient buffers drawn from ws. dTop is dL/d(top hidden output) at this
// step; carry holds the recurrent gradients flowing in from step t+1 and is
// replaced with the gradients to carry to step t-1 — its DH/DC slices become
// workspace memory, so the carry is only valid until ws.Reset. dL/dx is
// accumulated into dx (same length as the stack input).
//
//mdes:noalloc
func (s *StackedLSTM) StepBackwardWS(ws *Workspace, cache *StackStep, dTop []float64, carry *StackGrad, dx []float64) {
	top := len(s.Cells) - 1
	dh := ws.Vec(s.Cells[top].Hidden)
	copy(dh, carry.DH[top])
	mat.Axpy(1, dTop, dh)

	var dLower []float64
	for i := top; i >= 0; i-- {
		cell := s.Cells[i]
		if i < top {
			dh = ws.Vec(cell.Hidden)
			copy(dh, carry.DH[i])
			mat.Axpy(1, dLower, dh)
		}
		dhPrev := ws.Vec(cell.Hidden)
		dcPrev := ws.Vec(cell.Hidden)
		dIn := ws.Vec(cell.In)
		cell.StepBackwardWS(ws, cache.Steps[i], dh, carry.DC[i], dIn, dhPrev, dcPrev)
		carry.DH[i] = dhPrev
		carry.DC[i] = dcPrev
		if i > 0 && cache.dropMasks[i] != nil {
			for j := range dIn {
				dIn[j] *= cache.dropMasks[i][j]
			}
		}
		if i == 0 {
			mat.Axpy(1, dIn, dx)
		} else {
			dLower = dIn
		}
	}
}
