package nn

import (
	"math"
	"math/rand"
	"testing"

	"mdes/internal/mat"
)

// gradCheck compares every analytic parameter gradient against central finite
// differences of loss(). run() must zero gradients, run forward+backward, and
// return the loss; loss() must run forward only.
func gradCheck(t *testing.T, p *Params, run func() float64, loss func() float64, tol float64) {
	t.Helper()
	run()
	const h = 1e-5
	for _, prm := range p.All() {
		analytic := append([]float64(nil), prm.Grad.Data...)
		for i := range prm.W.Data {
			orig := prm.W.Data[i]
			prm.W.Data[i] = orig + h
			up := loss()
			prm.W.Data[i] = orig - h
			down := loss()
			prm.W.Data[i] = orig
			numeric := (up - down) / (2 * h)
			diff := math.Abs(numeric - analytic[i])
			scale := math.Max(1, math.Max(math.Abs(numeric), math.Abs(analytic[i])))
			if diff/scale > tol {
				t.Fatalf("%s[%d]: analytic %.8f numeric %.8f", prm.Name, i, analytic[i], numeric)
			}
		}
	}
}

func TestAdamDecreasesQuadratic(t *testing.T) {
	var p Params
	w := p.New("w", 1, 3)
	copy(w.W.Data, []float64{5, -3, 2})
	opt := NewAdam(0.1)
	lossAt := func() float64 {
		var s float64
		for _, v := range w.W.Data {
			s += v * v
		}
		return s
	}
	start := lossAt()
	for i := 0; i < 300; i++ {
		p.ZeroGrad()
		for j, v := range w.W.Data {
			w.Grad.Data[j] = 2 * v
		}
		opt.Step(&p)
	}
	if end := lossAt(); end > start/100 {
		t.Fatalf("Adam failed to optimise quadratic: %v -> %v", start, end)
	}
	if opt.StepCount() != 300 {
		t.Fatalf("StepCount = %d", opt.StepCount())
	}
}

func TestClipGrad(t *testing.T) {
	var p Params
	w := p.New("w", 1, 2)
	p.AllocGrad()
	w.Grad.Data[0] = 3
	w.Grad.Data[1] = 4
	norm := p.ClipGrad(1)
	if math.Abs(norm-5) > 1e-12 {
		t.Fatalf("pre-clip norm = %v, want 5", norm)
	}
	if got := p.GradNorm(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("post-clip norm = %v, want 1", got)
	}
	// NaN/Inf gradients are sanitised.
	w.Grad.Data[0] = math.NaN()
	w.Grad.Data[1] = math.Inf(1)
	p.ClipGrad(1)
	if p.GradNorm() != 0 {
		t.Fatal("NaN/Inf grads must be zeroed")
	}
}

func TestParamsCount(t *testing.T) {
	var p Params
	p.New("a", 2, 3)
	p.New("b", 1, 4)
	if p.Count() != 10 {
		t.Fatalf("Count = %d, want 10", p.Count())
	}
	if len(p.All()) != 2 {
		t.Fatalf("All = %d params", len(p.All()))
	}
}

func TestEmbeddingLookupBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var p Params
	e := NewEmbedding(&p, "emb", 5, 3, rng)
	p.AllocGrad()
	v := e.Lookup(2)
	if len(v) != 3 {
		t.Fatalf("Lookup dim = %d", len(v))
	}
	e.Backward(2, []float64{1, 2, 3})
	e.Backward(2, []float64{1, 0, 0})
	if e.W.Grad.At(2, 0) != 2 || e.W.Grad.At(2, 2) != 3 {
		t.Fatalf("embedding grad row = %v", e.W.Grad.Row(2))
	}
	if e.W.Grad.At(1, 0) != 0 {
		t.Fatal("untouched embedding rows must have zero grad")
	}
}

func TestLinearGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var p Params
	l := NewLinear(&p, "lin", 4, 3, rng)
	x := randVec(rng, 4)
	target := randVec(rng, 3)

	forward := func() float64 {
		y := make([]float64, 3)
		l.Forward(y, x)
		return halfSq(y, target)
	}
	run := func() float64 {
		p.ZeroGrad()
		y := make([]float64, 3)
		l.Forward(y, x)
		dy := make([]float64, 3)
		for i := range dy {
			dy[i] = y[i] - target[i]
		}
		dx := make([]float64, 4)
		l.Backward(dx, x, dy)
		return halfSq(y, target)
	}
	gradCheck(t, &p, run, forward, 1e-5)
}

func TestLinearInputGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var p Params
	l := NewLinear(&p, "lin", 3, 2, rng)
	p.AllocGrad()
	x := randVec(rng, 3)
	target := randVec(rng, 2)

	y := make([]float64, 2)
	l.Forward(y, x)
	dy := make([]float64, 2)
	for i := range dy {
		dy[i] = y[i] - target[i]
	}
	dx := make([]float64, 3)
	l.Backward(dx, x, dy)

	const h = 1e-6
	for i := range x {
		orig := x[i]
		x[i] = orig + h
		l.Forward(y, x)
		up := halfSq(y, target)
		x[i] = orig - h
		l.Forward(y, x)
		down := halfSq(y, target)
		x[i] = orig
		numeric := (up - down) / (2 * h)
		if math.Abs(numeric-dx[i]) > 1e-5 {
			t.Fatalf("dx[%d]: analytic %v numeric %v", i, dx[i], numeric)
		}
	}
}

func TestLSTMCellGradCheck(t *testing.T) {
	ws := NewWorkspace()
	rng := rand.New(rand.NewSource(4))
	var p Params
	cell := NewLSTMCell(&p, "lstm", 3, 4, rng)
	xs := [][]float64{randVec(rng, 3), randVec(rng, 3)}
	probe := randVec(rng, 4) // fixed projection defining a scalar loss

	forward := func() float64 {
		h := make([]float64, 4)
		c := make([]float64, 4)
		var loss float64
		for _, x := range xs {
			st := cell.StepWS(ws, x, h, c)
			h, c = st.H, st.C
			loss += mat.Dot(probe, st.H)
		}
		return loss
	}
	run := func() float64 {
		p.ZeroGrad()
		h := make([]float64, 4)
		c := make([]float64, 4)
		steps := make([]*LSTMStep, len(xs))
		var loss float64
		for i, x := range xs {
			st := cell.StepWS(ws, x, h, c)
			steps[i] = st
			h, c = st.H, st.C
			loss += mat.Dot(probe, st.H)
		}
		dh := make([]float64, 4)
		dc := make([]float64, 4)
		for i := len(xs) - 1; i >= 0; i-- {
			mat.Axpy(1, probe, dh) // dL/dh_t from the probe at step t
			dx := make([]float64, 3)
			dhPrev := make([]float64, 4)
			dcPrev := make([]float64, 4)
			cell.StepBackwardWS(ws, steps[i], dh, dc, dx, dhPrev, dcPrev)
			dh, dc = dhPrev, dcPrev
		}
		return loss
	}
	gradCheck(t, &p, run, forward, 1e-4)
}

func TestStackedLSTMGradCheck(t *testing.T) {
	ws := NewWorkspace()
	rng := rand.New(rand.NewSource(5))
	var p Params
	stack := NewStackedLSTM(&p, "enc", 2, 3, 4, 0, rng)
	xs := [][]float64{randVec(rng, 3), randVec(rng, 3), randVec(rng, 3)}
	probe := randVec(rng, 4)

	forward := func() float64 {
		st := stack.ZeroStateWS(ws)
		var loss float64
		for _, x := range xs {
			var cache *StackStep
			st, cache = stack.StepWS(ws, st, x, nil)
			_ = cache
			loss += mat.Dot(probe, st.H[stack.Layers()-1])
		}
		return loss
	}
	run := func() float64 {
		p.ZeroGrad()
		st := stack.ZeroStateWS(ws)
		caches := make([]*StackStep, len(xs))
		var loss float64
		for i, x := range xs {
			st, caches[i] = stack.StepWS(ws, st, x, nil)
			loss += mat.Dot(probe, st.H[stack.Layers()-1])
		}
		carry := stack.ZeroGradStateWS(ws)
		for i := len(xs) - 1; i >= 0; i-- {
			dx := make([]float64, 3)
			stack.StepBackwardWS(ws, caches[i], probe, carry, dx)
		}
		return loss
	}
	gradCheck(t, &p, run, forward, 1e-4)
}

func TestAttentionGradCheck(t *testing.T) {
	ws := NewWorkspace()
	rng := rand.New(rand.NewSource(6))
	var p Params
	attn := NewLuongAttention(&p, "attn", 3, rng)
	enc := [][]float64{randVec(rng, 3), randVec(rng, 3), randVec(rng, 3)}
	h := randVec(rng, 3)
	probe := randVec(rng, 3)

	forward := func() float64 {
		st := attend(ws, attn, enc, h)
		return mat.Dot(probe, st.HTilde)
	}
	run := func() float64 {
		p.ZeroGrad()
		st := attend(ws, attn, enc, h)
		dh := make([]float64, 3)
		dEnc := [][]float64{make([]float64, 3), make([]float64, 3), make([]float64, 3)}
		attn.BackwardWS(ws, st, probe, dh, dEnc)
		return mat.Dot(probe, st.HTilde)
	}
	gradCheck(t, &p, run, forward, 1e-4)
}

// Attention input gradients (dh and dEnc) must match finite differences too.
func TestAttentionInputGradients(t *testing.T) {
	ws := NewWorkspace()
	rng := rand.New(rand.NewSource(7))
	var p Params
	attn := NewLuongAttention(&p, "attn", 3, rng)
	p.AllocGrad()
	enc := [][]float64{randVec(rng, 3), randVec(rng, 3)}
	h := randVec(rng, 3)
	probe := randVec(rng, 3)

	st := attend(ws, attn, enc, h)
	dh := make([]float64, 3)
	dEnc := [][]float64{make([]float64, 3), make([]float64, 3)}
	attn.BackwardWS(ws, st, probe, dh, dEnc)

	lossAt := func() float64 {
		return mat.Dot(probe, attend(ws, attn, enc, h).HTilde)
	}
	const eps = 1e-6
	for i := range h {
		orig := h[i]
		h[i] = orig + eps
		up := lossAt()
		h[i] = orig - eps
		down := lossAt()
		h[i] = orig
		numeric := (up - down) / (2 * eps)
		if math.Abs(numeric-dh[i]) > 1e-4 {
			t.Fatalf("dh[%d]: analytic %v numeric %v", i, dh[i], numeric)
		}
	}
	for s := range enc {
		for i := range enc[s] {
			orig := enc[s][i]
			enc[s][i] = orig + eps
			up := lossAt()
			enc[s][i] = orig - eps
			down := lossAt()
			enc[s][i] = orig
			numeric := (up - down) / (2 * eps)
			if math.Abs(numeric-dEnc[s][i]) > 1e-4 {
				t.Fatalf("dEnc[%d][%d]: analytic %v numeric %v", s, i, dEnc[s][i], numeric)
			}
		}
	}
}

func TestAttentionWeightsSumToOne(t *testing.T) {
	ws := NewWorkspace()
	rng := rand.New(rand.NewSource(8))
	var p Params
	attn := NewLuongAttention(&p, "attn", 4, rng)
	enc := [][]float64{randVec(rng, 4), randVec(rng, 4), randVec(rng, 4), randVec(rng, 4)}
	st := attend(ws, attn, enc, randVec(rng, 4))
	var sum float64
	for _, w := range st.Weights {
		if w < 0 {
			t.Fatalf("negative attention weight %v", w)
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("attention weights sum to %v", sum)
	}
}

func TestDropoutMaskApplied(t *testing.T) {
	ws := NewWorkspace()
	rng := rand.New(rand.NewSource(9))
	var p Params
	stack := NewStackedLSTM(&p, "s", 2, 3, 4, 0.5, rng)
	st := stack.ZeroStateWS(ws)
	_, cacheTrain := stack.StepWS(ws, st, randVec(rng, 3), rng)
	if cacheTrain.dropMasks[1] == nil {
		t.Fatal("training step with dropout must record a mask for layer 1")
	}
	_, cacheInfer := stack.StepWS(ws, st, randVec(rng, 3), nil)
	if cacheInfer.dropMasks[1] != nil {
		t.Fatal("inference step must not apply dropout")
	}
}

func TestStackStateClone(t *testing.T) {
	ws := NewWorkspace()
	var p Params
	stack := NewStackedLSTM(&p, "s", 2, 2, 3, 0, rand.New(rand.NewSource(1)))
	st := stack.ZeroStateWS(ws)
	st.H[0][0] = 5
	c := st.CloneWS(ws)
	c.H[0][0] = 9
	if st.H[0][0] != 5 {
		t.Fatal("CloneWS must be deep")
	}
}

func TestForgetGateBiasInit(t *testing.T) {
	var p Params
	cell := NewLSTMCell(&p, "c", 2, 3, rand.New(rand.NewSource(1)))
	for j := 3; j < 6; j++ {
		if cell.B.W.Data[j] != 1 {
			t.Fatalf("forget bias[%d] = %v, want 1", j, cell.B.W.Data[j])
		}
	}
	if cell.B.W.Data[0] != 0 {
		t.Fatal("non-forget biases must start at 0")
	}
}

// attend is one attention application over a freshly projected enc.
func attend(ws *Workspace, a *LuongAttention, enc [][]float64, h []float64) *AttnStep {
	return a.ForwardWS(ws, enc, a.ProjectEnc(ws, enc), h)
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64() * 0.5
	}
	return v
}

func halfSq(y, target []float64) float64 {
	var s float64
	for i := range y {
		d := y[i] - target[i]
		s += 0.5 * d * d
	}
	return s
}
