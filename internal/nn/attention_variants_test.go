package nn

import (
	"math"
	"math/rand"
	"testing"

	"mdes/internal/mat"
)

func attentionGradCheck(t *testing.T, kind AttentionKind) {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	var p Params
	attn := NewLuongAttentionKind(&p, "attn", 3, kind, rng)
	enc := [][]float64{randVec(rng, 3), randVec(rng, 3), randVec(rng, 3)}
	h := randVec(rng, 3)
	probe := randVec(rng, 3)

	forward := func() float64 {
		return mat.Dot(probe, attn.Forward(enc, h).HTilde)
	}
	run := func() float64 {
		p.ZeroGrad()
		st := attn.Forward(enc, h)
		dh := make([]float64, 3)
		dEnc := [][]float64{make([]float64, 3), make([]float64, 3), make([]float64, 3)}
		attn.Backward(st, probe, dh, dEnc)
		return mat.Dot(probe, st.HTilde)
	}
	gradCheck(t, &p, run, forward, 1e-4)

	// Input gradients against finite differences.
	st := attn.Forward(enc, h)
	dh := make([]float64, 3)
	dEnc := [][]float64{make([]float64, 3), make([]float64, 3), make([]float64, 3)}
	attn.Backward(st, probe, dh, dEnc)
	const eps = 1e-6
	for i := range h {
		orig := h[i]
		h[i] = orig + eps
		up := forward()
		h[i] = orig - eps
		down := forward()
		h[i] = orig
		numeric := (up - down) / (2 * eps)
		if math.Abs(numeric-dh[i]) > 1e-4 {
			t.Fatalf("%v dh[%d]: analytic %v numeric %v", kind, i, dh[i], numeric)
		}
	}
	for s := range enc {
		for i := range enc[s] {
			orig := enc[s][i]
			enc[s][i] = orig + eps
			up := forward()
			enc[s][i] = orig - eps
			down := forward()
			enc[s][i] = orig
			numeric := (up - down) / (2 * eps)
			if math.Abs(numeric-dEnc[s][i]) > 1e-4 {
				t.Fatalf("%v dEnc[%d][%d]: analytic %v numeric %v", kind, s, i, dEnc[s][i], numeric)
			}
		}
	}
}

func TestAttentionDotGradCheck(t *testing.T)    { attentionGradCheck(t, AttentionDot) }
func TestAttentionConcatGradCheck(t *testing.T) { attentionGradCheck(t, AttentionConcat) }

func TestAttentionKindString(t *testing.T) {
	cases := map[AttentionKind]string{
		AttentionGeneral: "general",
		AttentionDot:     "dot",
		AttentionConcat:  "concat",
		AttentionKind(0): "unknown",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

func TestAttentionKindParameterCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	count := func(kind AttentionKind) int {
		var p Params
		NewLuongAttentionKind(&p, "a", 4, kind, rng)
		return p.Count()
	}
	dot := count(AttentionDot) // Wc only: 4x8 + 8... Wc W=4x8, b=1x4
	general := count(AttentionGeneral)
	concat := count(AttentionConcat)
	if !(dot < general && general < concat) {
		t.Fatalf("parameter counts: dot %d, general %d, concat %d", dot, general, concat)
	}
}

func TestAttentionUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown kind must panic at construction")
		}
	}()
	var p Params
	NewLuongAttentionKind(&p, "a", 4, AttentionKind(99), rand.New(rand.NewSource(1)))
}

func TestAttentionVariantsWeightsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, kind := range []AttentionKind{AttentionDot, AttentionGeneral, AttentionConcat} {
		var p Params
		attn := NewLuongAttentionKind(&p, "a", 4, kind, rng)
		enc := [][]float64{randVec(rng, 4), randVec(rng, 4)}
		st := attn.Forward(enc, randVec(rng, 4))
		var sum float64
		for _, w := range st.Weights {
			sum += w
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%v weights sum to %v", kind, sum)
		}
	}
}

// TestHoistedProjectionBitIdentical pins the decode-invariant hoist: several
// decoder steps attending over one sentence through a single shared
// ProjectEnc must produce, bit for bit, the outputs and every gradient of
// the same steps each projecting the encoder states afresh (Forward — the
// arithmetic before the hoist). All three kinds run: dot and concat have
// nothing to hoist and must be unaffected by the nil projection.
func TestHoistedProjectionBitIdentical(t *testing.T) {
	const hidden, srcLen, steps = 6, 7, 5
	sameBits := func(what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s[%d]: hoisted %v, per-step %v", what, i, got[i], want[i])
			}
		}
	}
	for _, kind := range []AttentionKind{AttentionGeneral, AttentionDot, AttentionConcat} {
		var pHoist, pStep Params
		hoist := NewLuongAttentionKind(&pHoist, "a", hidden, kind, rand.New(rand.NewSource(23)))
		step := NewLuongAttentionKind(&pStep, "a", hidden, kind, rand.New(rand.NewSource(23)))

		rng := rand.New(rand.NewSource(29))
		enc := make([][]float64, srcLen)
		for s := range enc {
			enc[s] = randVec(rng, hidden)
		}
		hs, probes := make([][]float64, steps), make([][]float64, steps)
		for i := range hs {
			hs[i], probes[i] = randVec(rng, hidden), randVec(rng, hidden)
		}

		ws := NewWorkspace()
		waEnc := hoist.ProjectEnc(ws, enc)
		if (waEnc != nil) != (kind == AttentionGeneral) {
			t.Fatalf("%v: ProjectEnc returned %d projections", kind, len(waEnc))
		}
		dEncHoist, dEncStep := ws.Vecs(srcLen), make([][]float64, srcLen)
		for s := range enc {
			dEncHoist[s], dEncStep[s] = ws.Vec(hidden), make([]float64, hidden)
		}
		hoisted, perStep := make([]*AttnStep, steps), make([]*AttnStep, steps)
		for i, h := range hs {
			hoisted[i] = hoist.ForwardWS(ws, enc, waEnc, h)
			perStep[i] = step.Forward(enc, h)
			sameBits(kind.String()+" weights", hoisted[i].Weights, perStep[i].Weights)
			sameBits(kind.String()+" h~", hoisted[i].HTilde, perStep[i].HTilde)
		}
		for i := steps - 1; i >= 0; i-- {
			dhHoist, dhStep := ws.Vec(hidden), make([]float64, hidden)
			hoist.BackwardWS(ws, hoisted[i], probes[i], dhHoist, dEncHoist)
			step.Backward(perStep[i], probes[i], dhStep, dEncStep)
			sameBits(kind.String()+" dh", dhHoist, dhStep)
		}
		for s := range enc {
			sameBits(kind.String()+" dEnc", dEncHoist[s], dEncStep[s])
		}
		for i, prm := range pHoist.All() {
			sameBits(kind.String()+" grad "+prm.Name, prm.Grad.Data, pStep.All()[i].Grad.Data)
		}
	}
}
