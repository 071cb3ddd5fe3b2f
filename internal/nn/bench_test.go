package nn

import (
	"math/rand"
	"testing"
)

// Benchmarks for the LSTM hot path. BenchmarkLSTMStep and
// BenchmarkLSTMStepBackward measure the per-timestep cost of a single cell at
// the DefaultConfig width (32) — the unit of work pair training executes
// hundreds of thousands of times. Run with -benchmem: the workspace variants
// must report 0 allocs/op after warmup.

func benchCell(b *testing.B, hidden int) (*LSTMCell, []float64, []float64, []float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	var p Params
	cell := NewLSTMCell(&p, "c", hidden, hidden, rng)
	p.AllocGrad()
	x := randVec(rng, hidden)
	h := randVec(rng, hidden)
	c := randVec(rng, hidden)
	return cell, x, h, c
}

func BenchmarkLSTMStep(b *testing.B) {
	cell, x, h, c := benchCell(b, 32)
	ws := NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Reset()
		st := cell.StepWS(ws, x, h, c)
		if st.H[0] == 0 && st.H[1] == 0 {
			b.Fatal("degenerate step")
		}
	}
}

func BenchmarkLSTMStepBackward(b *testing.B) {
	cell, x, h, c := benchCell(b, 32)
	ws := NewWorkspace()
	st := cell.StepWS(ws, x, h, c)
	dh := randVec(rand.New(rand.NewSource(2)), 32)
	dc := make([]float64, 32)
	dx := make([]float64, 32)
	dhPrev := make([]float64, 32)
	dcPrev := make([]float64, 32)
	inner := NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inner.Reset()
		cell.StepBackwardWS(inner, st, dh, dc, dx, dhPrev, dcPrev)
	}
}

func BenchmarkStackedLSTMStep(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	var p Params
	stack := NewStackedLSTM(&p, "s", 2, 32, 32, 0, rng)
	x := randVec(rng, 32)
	ws := NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Reset()
		st := stack.ZeroStateWS(ws)
		next, _ := stack.StepWS(ws, st, x, nil)
		if len(next.H) != 2 {
			b.Fatal("bad state")
		}
	}
}

func BenchmarkAttentionForward(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	var p Params
	attn := NewLuongAttention(&p, "a", 32, rng)
	enc := make([][]float64, 20)
	for i := range enc {
		enc[i] = randVec(rng, 32)
	}
	h := randVec(rng, 32)
	waEnc := attn.ProjectEnc(NewWorkspace(), enc) // once per sentence, not per decoder step; its own arena survives the resets below
	ws := NewWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Reset()
		st := attn.ForwardWS(ws, enc, waEnc, h)
		if len(st.Weights) != 20 {
			b.Fatal("bad weights")
		}
	}
}
