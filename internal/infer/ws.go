package infer

import (
	"mdes/internal/mat"
	"mdes/internal/nmt"
)

// ws is the per-call scratch arena of the inference engine — the float32
// counterpart of nn.Workspace. Matrices, token buffers, and quantisation
// scratch for one ScoreBatch call are bump-allocated out of reusable slabs;
// matrix headers come from a free list. Steady-state batched scoring
// allocates nothing (pinned by TestScoreBatchSteadyStateAllocs).
//
// Lifetime contract: everything handed out is valid until the next reset. A
// ws is not safe for concurrent use; models pool them (sync.Pool) so
// concurrent ScoreBatch calls each get their own.
type ws struct {
	slab []float32
	off  int
	// spill holds slabs that filled up since the last reset; their capacity
	// is folded into one right-sized slab on the next reset so the steady
	// state is a single slab and zero allocations.
	spill      [][]float32
	spillElems int

	ints   []int
	intOff int

	mats []*mat.Matrix32
	matN int

	// hs/cs hold the per-layer LSTM state matrices of the group currently
	// being decoded.
	hs, cs []*mat.Matrix32

	// hyps is the reusable outer slice for decoded hypotheses (inner slices
	// point into the int slab or the translation cache).
	hyps [][]int

	// qbuf/qscales hold one GEMM call's quantized activations (int8 path).
	qbuf    []int8
	qscales []float32

	// src1/ref1/out1 back the single-sentence entry points.
	src1, ref1 [1][]int
	out1       [1]float64

	scorer *nmt.SentenceScorer
}

func newWS() *ws { return &ws{scorer: nmt.NewSentenceScorer()} }

const minSlab = 4096

// reset recycles everything handed out since the previous reset.
func (w *ws) reset() {
	if len(w.spill) > 0 {
		total := w.spillElems + len(w.slab)
		w.slab = make([]float32, total)
		w.spill = w.spill[:0]
		w.spillElems = 0
	}
	w.off = 0
	w.intOff = 0
	w.matN = 0
	w.src1[0], w.ref1[0] = nil, nil
}

// vec returns a zeroed length-n float32 slice valid until the next reset.
//
//mdes:noalloc
func (w *ws) vec(n int) []float32 {
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

func (w *ws) growFloat(n int) {
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
	w.slab = make([]float32, size)
	w.off = 0
}

// intsBuf returns a zeroed length-n int slice valid until the next reset.
//
//mdes:noalloc
func (w *ws) intsBuf(n int) []int {
	// Old int slabs are dropped (outstanding slices keep them alive); growth
	// reaches steady state after the first call of the largest shape.
	//mdes:allow(noalloc) slab growth: amortised to zero at steady state
	if w.intOff+n > len(w.ints) {
		size := 2 * len(w.ints)
		if size < minSlab/4 {
			size = minSlab / 4
		}
		if size < n {
			size = n
		}
		w.ints = make([]int, size)
		w.intOff = 0
	}
	v := w.ints[w.intOff : w.intOff+n : w.intOff+n]
	w.intOff += n
	for i := range v {
		v[i] = 0
	}
	return v
}

// matrix returns a zeroed rows×cols matrix backed by the slab, with its
// header drawn from the free list.
//
//mdes:noalloc
func (w *ws) matrix(rows, cols int) *mat.Matrix32 {
	var m *mat.Matrix32
	//mdes:allow(noalloc) header free-list growth: amortised to zero once the list is warm
	if w.matN < len(w.mats) {
		m = w.mats[w.matN]
	} else {
		m = &mat.Matrix32{}
		w.mats = append(w.mats, m)
	}
	w.matN++
	m.Rows, m.Cols = rows, cols
	m.Data = w.vec(rows * cols)
	return m
}

// states sizes hs/cs to layers zeroed B×h state matrices.
//
//mdes:noalloc
func (w *ws) states(layers, b, h int) {
	w.hs = resizeOuterMat(w.hs, layers)
	w.cs = resizeOuterMat(w.cs, layers)
	for l := 0; l < layers; l++ {
		w.hs[l] = w.matrix(b, h)
		w.cs[l] = w.matrix(b, h)
	}
}

// quantScratch returns int8/scale buffers for one quantized GEMM call (B
// activation rows of length n). The buffers are persistent — the next call
// overwrites them — so one pair serves every GEMM in a step.
//
//mdes:noalloc
func (w *ws) quantScratch(b, n int) ([]int8, []float32) {
	if cap(w.qbuf) < b*n {
		//mdes:allow(noalloc) grow-once scratch: amortised to zero at steady state
		w.qbuf = make([]int8, b*n)
	}
	if cap(w.qscales) < b {
		//mdes:allow(noalloc) grow-once scratch: amortised to zero at steady state
		w.qscales = make([]float32, b)
	}
	return w.qbuf[:b*n], w.qscales[:b]
}

// resizeOuterMat grows an outer matrix-pointer slice to length n.
//
//mdes:noalloc
func resizeOuterMat(prev []*mat.Matrix32, n int) []*mat.Matrix32 {
	if cap(prev) < n {
		//mdes:allow(noalloc) grow-once outer slice: amortised to zero at steady state
		return make([]*mat.Matrix32, n)
	}
	return prev[:n]
}

// resizeOuterInts grows an outer [][]int to length n with nil elements.
//
//mdes:noalloc
func resizeOuterInts(prev [][]int, n int) [][]int {
	if cap(prev) < n {
		//mdes:allow(noalloc) grow-once outer slice: amortised to zero at steady state
		return make([][]int, n)
	}
	prev = prev[:n]
	for i := range prev {
		prev[i] = nil
	}
	return prev
}
