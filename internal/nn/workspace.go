package nn

import "mdes/internal/mat"

// Workspace is a per-model scratch arena for the train/translate hot path.
// Forward caches, gate buffers, and backward scratch for one example are
// bump-allocated out of mat.Slabs: one per element type, including the step
// cache structs (Slab.New is their free list) and the per-position slices
// that index them (one entry per source token or decoder step). So stepping
// an LSTM — and training or decoding a whole example — allocates nothing once
// the workspace has warmed up (see the AllocsPerRun tests in workspace_test.go
// and internal/nmt).
//
// Lifetime contract: every slice or struct handed out by a Workspace is valid
// only until the next Reset. Callers reset once per unit of work whose caches
// must coexist — one training example (forward caches survive into the
// backward pass) or one decoded sentence. A Workspace is not safe for
// concurrent use; models hand them out through a sync.Pool so concurrent
// translations each get their own.
type Workspace struct {
	floats     mat.Slab[float64]
	ints       mat.Slab[int]
	vecs       mat.Slab[[]float64]
	stepPtrs   mat.Slab[*LSTMStep]
	stackSteps mat.Slab[*StackStep]
	attnSteps  mat.Slab[*AttnStep]

	steps  mat.Slab[LSTMStep]
	stacks mat.Slab[StackStep]
	states mat.Slab[StackState]
	attns  mat.Slab[AttnStep]
	grads  mat.Slab[StackGrad]
}

// NewWorkspace returns an empty workspace; slabs grow on demand.
func NewWorkspace() *Workspace { return &Workspace{} }

// Reset recycles everything handed out since the previous Reset. Previously
// returned slices and cache structs must no longer be used.
//
//mdes:noalloc
func (w *Workspace) Reset() {
	w.floats.Reset()
	w.ints.Reset()
	w.vecs.Reset()
	w.stepPtrs.Reset()
	w.stackSteps.Reset()
	w.attnSteps.Reset()
	w.steps.Reset()
	w.stacks.Reset()
	w.states.Reset()
	w.attns.Reset()
	w.grads.Reset()
}

// Vec returns a zeroed length-n float64 slice valid until the next Reset.
//
//mdes:noalloc
func (w *Workspace) Vec(n int) []float64 { return w.floats.Take(n) }

// Ints returns a zeroed length-n int slice valid until the next Reset.
//
//mdes:noalloc
func (w *Workspace) Ints(n int) []int { return w.ints.Take(n) }

// Vecs returns a length-n slice of nil vectors valid until the next Reset —
// the index of one vector per source position or decoder step.
//
//mdes:noalloc
func (w *Workspace) Vecs(n int) [][]float64 { return w.vecs.Take(n) }

// StackSteps returns a length-n slice of nil step caches valid until the next
// Reset, for the caller to fill with what StepWS returns.
//
//mdes:noalloc
func (w *Workspace) StackSteps(n int) []*StackStep { return w.stackSteps.Take(n) }

// AttnSteps is StackSteps for attention caches.
//
//mdes:noalloc
func (w *Workspace) AttnSteps(n int) []*AttnStep { return w.attnSteps.Take(n) }

// stackStep returns a cleared StackStep with room for l layers.
//
//mdes:noalloc
func (w *Workspace) stackStep(l int) *StackStep {
	st := w.stacks.New()
	st.Steps = w.stepPtrs.Take(l)
	st.dropMasks = w.vecs.Take(l)
	st.dropped = w.vecs.Take(l)
	return st
}

// stackState returns a StackState with room for l layers; the caller fills
// the H/C entries.
//
//mdes:noalloc
func (w *Workspace) stackState(l int) *StackState {
	st := w.states.New()
	st.H, st.C = w.vecs.Take(l), w.vecs.Take(l)
	return st
}

// stackGrad returns a StackGrad with room for l layers.
//
//mdes:noalloc
func (w *Workspace) stackGrad(l int) *StackGrad {
	g := w.grads.New()
	g.DH, g.DC = w.vecs.Take(l), w.vecs.Take(l)
	return g
}
