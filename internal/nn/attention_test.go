package nn

import (
	"math"
	"math/rand"
	"testing"
)

// TestHoistedProjectionBitIdentical pins the decode-invariant hoist: several
// decoder steps attending over one sentence through a single shared
// ProjectEnc must produce, bit for bit, the outputs and every gradient of
// the same steps each projecting the encoder states afresh (the arithmetic
// before the hoist).
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
	var pHoist, pStep Params
	hoist := NewLuongAttention(&pHoist, "a", hidden, rand.New(rand.NewSource(23)))
	step := NewLuongAttention(&pStep, "a", hidden, rand.New(rand.NewSource(23)))
	pHoist.AllocGrad()
	pStep.AllocGrad()

	rng := rand.New(rand.NewSource(29))
	enc := make([][]float64, srcLen)
	for s := range enc {
		enc[s] = randVec(rng, hidden)
	}
	hs, probes := make([][]float64, steps), make([][]float64, steps)
	for i := range hs {
		hs[i], probes[i] = randVec(rng, hidden), randVec(rng, hidden)
	}

	ws, wsStep := NewWorkspace(), NewWorkspace()
	waEnc := hoist.ProjectEnc(ws, enc)
	dEncHoist, dEncStep := ws.Vecs(srcLen), make([][]float64, srcLen)
	for s := range enc {
		dEncHoist[s], dEncStep[s] = ws.Vec(hidden), make([]float64, hidden)
	}
	hoisted, perStep := make([]*AttnStep, steps), make([]*AttnStep, steps)
	for i, h := range hs {
		hoisted[i] = hoist.ForwardWS(ws, enc, waEnc, h)
		perStep[i] = attend(wsStep, step, enc, h)
		sameBits("weights", hoisted[i].Weights, perStep[i].Weights)
		sameBits("h~", hoisted[i].HTilde, perStep[i].HTilde)
	}
	for i := steps - 1; i >= 0; i-- {
		dhHoist, dhStep := ws.Vec(hidden), make([]float64, hidden)
		hoist.BackwardWS(ws, hoisted[i], probes[i], dhHoist, dEncHoist)
		step.BackwardWS(wsStep, perStep[i], probes[i], dhStep, dEncStep)
		sameBits("dh", dhHoist, dhStep)
	}
	for s := range enc {
		sameBits("dEnc", dEncHoist[s], dEncStep[s])
	}
	for i, prm := range pHoist.All() {
		sameBits("grad "+prm.Name, prm.Grad.Data, pStep.All()[i].Grad.Data)
	}
}
