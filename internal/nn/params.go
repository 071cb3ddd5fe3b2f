// Package nn implements the small neural-network toolkit the NMT model is
// built from: trainable parameters with Adam, embeddings, linear layers,
// stacked LSTM cells, and Luong attention. Everything runs on flat float64
// vectors from internal/mat and is hand-differentiated; gradient-check tests
// in this package validate each layer against finite differences.
package nn

import (
	"fmt"
	"math"

	"mdes/internal/mat"
)

// Param is a trainable matrix together with its gradient and Adam moments.
// Only W lives for the parameter's whole life: Grad and the moments are
// training state, allocated zeroed on first use (ZeroGrad, AllocGrad,
// Adam.Step) and released by FreeTrainState, so a model that only decodes
// holds one float64 per weight, not four.
type Param struct {
	Name string
	W    *mat.Matrix
	Grad *mat.Matrix // nil until the parameter trains

	m, v *mat.Matrix // first/second Adam moment estimates; nil until the first Step
}

// Params owns every trainable parameter of a model so that optimisation,
// gradient zeroing, and clipping can be applied uniformly.
type Params struct {
	list []*Param
}

// New allocates a rows×cols parameter's weights, registers it, and returns
// it. It has no gradient or moments until it trains.
func (p *Params) New(name string, rows, cols int) *Param {
	prm := &Param{Name: name, W: mat.New(rows, cols)}
	p.list = append(p.list, prm)
	return prm
}

// All returns the registered parameters in registration order.
func (p *Params) All() []*Param { return p.list }

// Count returns the total number of scalar parameters.
func (p *Params) Count() int {
	var n int
	for _, prm := range p.list {
		n += len(prm.W.Data)
	}
	return n
}

// ZeroGrad clears every gradient, allocating it on first use.
func (p *Params) ZeroGrad() {
	p.AllocGrad()
	for _, prm := range p.list {
		prm.Grad.Zero()
	}
}

// AllocGrad gives every parameter without a gradient a zeroed one and leaves
// existing gradients as they are, so a backward pass can accumulate into
// them.
func (p *Params) AllocGrad() {
	for _, prm := range p.list {
		if prm.Grad == nil {
			prm.Grad = mat.New(prm.W.Rows, prm.W.Cols)
		}
	}
}

// FreeTrainState releases every gradient and Adam moment, leaving only the
// weights. Training again allocates them afresh, zeroed, so an optimiser
// stepping these parameters after the call must start over too (NewAdam).
func (p *Params) FreeTrainState() {
	for _, prm := range p.list {
		prm.Grad, prm.m, prm.v = nil, nil, nil
	}
}

// HoldsTrainState reports whether any parameter holds a gradient or Adam
// moments.
func (p *Params) HoldsTrainState() bool {
	for _, prm := range p.list {
		if prm.Grad != nil || prm.m != nil || prm.v != nil {
			return true
		}
	}
	return false
}

// GradNorm returns the global L2 norm across all gradients.
func (p *Params) GradNorm() float64 {
	var sum float64
	for _, prm := range p.list {
		for _, g := range prm.Grad.Data {
			sum += g * g
		}
	}
	return math.Sqrt(sum)
}

// ClipGrad rescales all gradients so the global norm does not exceed maxNorm,
// and returns the pre-clipping norm. NaN or Inf gradients are zeroed first so
// a single diverged step cannot poison the optimiser state.
func (p *Params) ClipGrad(maxNorm float64) float64 {
	for _, prm := range p.list {
		for i, g := range prm.Grad.Data {
			if math.IsNaN(g) || math.IsInf(g, 0) {
				prm.Grad.Data[i] = 0
			}
		}
	}
	norm := p.GradNorm()
	if maxNorm > 0 && norm > maxNorm {
		scale := maxNorm / norm
		for _, prm := range p.list {
			mat.Scale(scale, prm.Grad.Data)
		}
	}
	return norm
}

// Adam is the Adam optimiser (Kingma & Ba) with bias correction.
type Adam struct {
	LR    float64
	Beta1 float64
	Beta2 float64
	Eps   float64

	step int
}

// NewAdam returns an Adam optimiser with the conventional defaults except the
// caller-provided learning rate.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one Adam update to every parameter using its current gradient
// (which must exist: ZeroGrad or AllocGrad first). Moments are allocated
// zeroed on the first step that needs them.
func (a *Adam) Step(p *Params) {
	a.step++
	c1 := 1 - math.Pow(a.Beta1, float64(a.step))
	c2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for _, prm := range p.list {
		if prm.m == nil {
			prm.m = mat.New(prm.W.Rows, prm.W.Cols)
			prm.v = mat.New(prm.W.Rows, prm.W.Cols)
		}
		w, g, m, v := prm.W.Data, prm.Grad.Data, prm.m.Data, prm.v.Data
		for i := range w {
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*g[i]
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*g[i]*g[i]
			mHat := m[i] / c1
			vHat := v[i] / c2
			w[i] -= a.LR * mHat / (math.Sqrt(vHat) + a.Eps)
		}
	}
}

// Snapshot copies every parameter's weights keyed by name, for persistence.
func (p *Params) Snapshot() map[string][]float64 {
	out := make(map[string][]float64, len(p.list))
	for _, prm := range p.list {
		out[prm.Name] = append([]float64(nil), prm.W.Data...)
	}
	return out
}

// Restore loads weights captured by Snapshot into same-shaped parameters.
func (p *Params) Restore(weights map[string][]float64) error {
	for _, prm := range p.list {
		w, ok := weights[prm.Name]
		if !ok {
			return fmt.Errorf("nn: missing weights for %q", prm.Name)
		}
		if len(w) != len(prm.W.Data) {
			return fmt.Errorf("nn: %q has %d weights, want %d", prm.Name, len(w), len(prm.W.Data))
		}
		copy(prm.W.Data, w)
	}
	return nil
}

// checkLen panics with a descriptive message when a layer receives a vector
// of the wrong length; used by all layers in this package.
func checkLen(layer string, got, want int) {
	if got != want {
		panic(fmt.Sprintf("nn: %s: vector length %d, want %d", layer, got, want))
	}
}
