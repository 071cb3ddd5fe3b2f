package infer

import (
	"sync"

	"mdes/internal/mat"
	"mdes/internal/nmt"
)

// ws is the per-call scratch arena of the inference engine — the float32
// counterpart of nn.Workspace, on the same mat.Slab and mat.Resize.
// Matrices, their headers, token buffers and hypothesis slices for one
// ScoreBatch call are bump-allocated out of slabs; the LSTM state and
// quantisation scratch are reused buffers. Steady-state batched scoring
// allocates nothing (pinned by TestScoreBatchSteadyStateAllocs).
//
// Lifetime contract: everything handed out is valid until the next reset. A
// ws is not safe for concurrent use; engines draw them from one pool so
// concurrent ScoreBatch calls each get their own.
type ws struct {
	floats mat.Slab[float32]
	ints   mat.Slab[int]
	seqs   mat.Slab[[]int] // hypotheses, pointing into the int slab (at F64, the heap)
	mats   mat.Slab[mat.Matrix32]

	// hs/cs hold the per-layer LSTM state matrices of the group currently
	// being decoded.
	hs, cs []*mat.Matrix32

	// qbuf/qscales hold one GEMM call's quantized activations (int8 path).
	qbuf    []int8
	qscales []float32

	// src1/ref1/out1 back the single-sentence entry points.
	src1, ref1 [1][]int
	out1       [1]float64

	scorer *nmt.SentenceScorer
}

func newWS() *ws { return &ws{scorer: nmt.NewSentenceScorer()} }

// workspaces is the one pool every engine draws from, as nmt's is for
// nn.Workspace: a ws sizes itself to whatever shape uses it, so the
// workspaces kept warm number the goroutines scoring, not the pair engines
// loaded.
var workspaces = sync.Pool{New: func() any { return newWS() }}

func getWS() *ws { return workspaces.Get().(*ws) }

func putWS(w *ws) {
	w.reset()
	workspaces.Put(w)
}

// reset recycles everything handed out since the previous reset.
//
//mdes:noalloc
func (w *ws) reset() {
	w.floats.Reset()
	w.ints.Reset()
	w.seqs.Reset()
	w.mats.Reset()
	w.src1[0], w.ref1[0] = nil, nil
}

// matrix returns a zeroed rows×cols matrix backed by the slab, with its
// header drawn from the header slab.
//
//mdes:noalloc
func (w *ws) matrix(rows, cols int) *mat.Matrix32 {
	m := w.mats.New()
	m.Rows, m.Cols = rows, cols
	m.Data = w.floats.Take(rows * cols)
	return m
}

// states sizes hs/cs to layers zeroed B×h state matrices.
//
//mdes:noalloc
func (w *ws) states(layers, b, h int) {
	w.hs = mat.Resize(w.hs, layers)
	w.cs = mat.Resize(w.cs, layers)
	for l := 0; l < layers; l++ {
		w.hs[l] = w.matrix(b, h)
		w.cs[l] = w.matrix(b, h)
	}
}
