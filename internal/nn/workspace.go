package nn

// Workspace is a per-model scratch arena for the train/translate hot path.
// Forward caches, gate buffers, and backward scratch for one example are
// bump-allocated out of a reusable slab, the per-step cache structs come
// from free lists and the per-position slices that index them (one entry per
// source token or decoder step) from small typed arenas, so stepping an LSTM
// — and training or decoding a whole example — allocates nothing once the
// workspace has warmed up (see the AllocsPerRun tests in workspace_test.go
// and internal/nmt).
//
// Lifetime contract: every slice or struct handed out by a Workspace is valid
// only until the next Reset. Callers reset once per unit of work whose caches
// must coexist — one training example (forward caches survive into the
// backward pass) or one decoded sentence. A Workspace is not safe for
// concurrent use; models hand them out through a sync.Pool so concurrent
// translations each get their own.
type Workspace struct {
	slab []float64
	off  int
	// spill holds slabs that filled up since the last Reset; their capacity
	// is folded into one right-sized slab on the next Reset so the steady
	// state is a single slab and zero allocations.
	spill      [][]float64
	spillElems int

	ints       arena[int]
	vecs       arena[[]float64]
	stackSteps arena[*StackStep]
	attnSteps  arena[*AttnStep]

	steps  []*LSTMStep
	stepN  int
	stacks []*StackStep
	stackN int
	states []*StackState
	stateN int
	attns  []*AttnStep
	attnN  int
	grads  []*StackGrad
	gradN  int
}

// NewWorkspace returns an empty workspace; slabs grow on demand.
func NewWorkspace() *Workspace { return &Workspace{} }

// Reset recycles everything handed out since the previous Reset. Previously
// returned slices and cache structs must no longer be used.
func (w *Workspace) Reset() {
	if len(w.spill) > 0 {
		// Coalesce: one slab big enough for everything the last example used.
		total := w.spillElems + len(w.slab)
		w.slab = make([]float64, total)
		w.spill = w.spill[:0]
		w.spillElems = 0
	}
	w.off = 0
	w.ints.off = 0
	w.vecs.off = 0
	w.stackSteps.off = 0
	w.attnSteps.off = 0
	w.stepN = 0
	w.stackN = 0
	w.stateN = 0
	w.attnN = 0
	w.gradN = 0
}

const minSlab = 4096

// Vec returns a zeroed length-n float64 slice valid until the next Reset.
func (w *Workspace) Vec(n int) []float64 {
	if w.off+n > len(w.slab) {
		w.growFloat(n)
	}
	v := w.slab[w.off : w.off+n : w.off+n]
	w.off += n
	for i := range v {
		v[i] = 0
	}
	return v
}

func (w *Workspace) growFloat(n int) {
	if len(w.slab) > 0 {
		w.spill = append(w.spill, w.slab)
		w.spillElems += len(w.slab)
	}
	size := 2 * len(w.slab)
	if size < minSlab {
		size = minSlab
	}
	if size < n {
		size = n
	}
	w.slab = make([]float64, size)
	w.off = 0
}

// arena bump-allocates slices of T that stay valid until the workspace's
// next Reset. A full slab is simply dropped for one twice the size — what it
// handed out stays alive through its users — so an arena reaches the size of
// the largest example after a few of them and then allocates nothing.
type arena[T any] struct {
	buf []T
	off int
}

const minArena = 64

// take returns a zeroed length-n slice.
func (a *arena[T]) take(n int) []T {
	if a.off+n > len(a.buf) {
		a.buf = make([]T, max(2*len(a.buf), minArena, n))
		a.off = 0
	}
	v := a.buf[a.off : a.off+n : a.off+n]
	a.off += n
	clear(v)
	return v
}

// Ints returns a zeroed length-n int slice valid until the next Reset.
func (w *Workspace) Ints(n int) []int { return w.ints.take(n) }

// Vecs returns a length-n slice of nil vectors valid until the next Reset —
// the index of one vector per source position or decoder step.
func (w *Workspace) Vecs(n int) [][]float64 { return w.vecs.take(n) }

// StackSteps returns a length-n slice of nil step caches valid until the next
// Reset, for the caller to fill with what StepWS returns.
func (w *Workspace) StackSteps(n int) []*StackStep { return w.stackSteps.take(n) }

// AttnSteps is StackSteps for attention caches.
func (w *Workspace) AttnSteps(n int) []*AttnStep { return w.attnSteps.take(n) }

// lstmStep returns a cleared LSTMStep from the free list.
func (w *Workspace) lstmStep() *LSTMStep {
	if w.stepN == len(w.steps) {
		w.steps = append(w.steps, new(LSTMStep))
	}
	st := w.steps[w.stepN]
	w.stepN++
	*st = LSTMStep{}
	return st
}

// stackStep returns a StackStep with layer-count l slice headers reused.
func (w *Workspace) stackStep(l int) *StackStep {
	if w.stackN == len(w.stacks) {
		w.stacks = append(w.stacks, new(StackStep))
	}
	st := w.stacks[w.stackN]
	w.stackN++
	st.Steps = resizePtrs(st.Steps, l)
	st.dropMasks = resizeSlices(st.dropMasks, l)
	st.dropped = resizeSlices(st.dropped, l)
	return st
}

// stackState returns a StackState whose outer slices are reused; the caller
// fills H/C entries.
func (w *Workspace) stackState(l int) *StackState {
	if w.stateN == len(w.states) {
		w.states = append(w.states, new(StackState))
	}
	st := w.states[w.stateN]
	w.stateN++
	st.H = resizeSlices(st.H, l)
	st.C = resizeSlices(st.C, l)
	return st
}

// attnStep returns a cleared AttnStep from the free list.
func (w *Workspace) attnStep() *AttnStep {
	if w.attnN == len(w.attns) {
		w.attns = append(w.attns, new(AttnStep))
	}
	st := w.attns[w.attnN]
	w.attnN++
	*st = AttnStep{}
	return st
}

// stackGrad returns a StackGrad whose outer slices are reused.
func (w *Workspace) stackGrad(l int) *StackGrad {
	if w.gradN == len(w.grads) {
		w.grads = append(w.grads, new(StackGrad))
	}
	g := w.grads[w.gradN]
	w.gradN++
	g.DH = resizeSlices(g.DH, l)
	g.DC = resizeSlices(g.DC, l)
	return g
}

// resizeSlices returns s with length l and every element nil, reusing the
// backing array when it is big enough.
func resizeSlices(s [][]float64, l int) [][]float64 {
	if cap(s) < l {
		return make([][]float64, l)
	}
	s = s[:l]
	for i := range s {
		s[i] = nil
	}
	return s
}

// resizePtrs is resizeSlices for LSTMStep pointers.
func resizePtrs(s []*LSTMStep, l int) []*LSTMStep {
	if cap(s) < l {
		return make([]*LSTMStep, l)
	}
	s = s[:l]
	for i := range s {
		s[i] = nil
	}
	return s
}
