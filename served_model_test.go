package mdes

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"mdes/internal/nmt"
)

// TestServedModelHoldsOnlyWeights: gradients and Adam moments exist only
// while a pair model trains. No pair model holds them after nmt.TrainPair,
// nmt.LoadModel, Framework.Train or Load, and a loaded model still trains,
// allocating them as it starts.
func TestServedModelHoldsOnlyWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sentences := func(n int) [][]int {
		out := make([][]int, n)
		for i := range out {
			out[i] = make([]int, 2+rng.Intn(5))
			for j := range out[i] {
				out[i][j] = 3 + rng.Intn(6)
			}
		}
		return out
	}
	data := nmt.PairData{
		Src: "a", Tgt: "b",
		TrainSrc: sentences(24), TrainTgt: sentences(24),
		DevSrc: sentences(6), DevTgt: sentences(6),
		SrcVocab: 9, TgtVocab: 9,
	}
	res := nmt.TrainPair(tinyTestConfig().NMT, data, 4)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Model.HoldsTrainState() {
		t.Error("nmt.TrainPair: the trained model still holds its training state")
	}
	loaded, err := nmt.LoadModel(res.Model.State())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.HoldsTrainState() {
		t.Error("nmt.LoadModel: the loaded model holds training state")
	}
	before := res.Model.State().Weights["out.W"]
	if _, err := loaded.Train(data.TrainSrc, data.TrainTgt); err != nil {
		t.Fatalf("training a loaded model: %v", err)
	}
	if !loaded.HoldsTrainState() {
		t.Error("a loaded model that trains must hold gradients and moments")
	}
	if slices.Equal(before, loaded.State().Weights["out.W"]) {
		t.Error("training a loaded model left its weights unchanged")
	}

	model := trainTiny(t)
	check := func(via string, m *Model) {
		t.Helper()
		if len(m.pairs) == 0 {
			t.Fatalf("%s: no pair models", via)
		}
		var weights int64
		for key, pm := range m.pairs {
			if pm.HoldsTrainState() {
				t.Errorf("%s: pair %s->%s holds training state", via, key[0], key[1])
			}
			weights += 8 * int64(pm.ParamCount())
		}
		if got := m.PairModelBytes(); got != weights {
			t.Errorf("%s: PairModelBytes %d, want the %d bytes of float64 weights", via, got, weights)
		}
	}
	check("Framework.Train", model)
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	check("Load", back)
}
