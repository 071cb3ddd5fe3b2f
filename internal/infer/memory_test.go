package infer

import (
	"math/rand"
	"runtime"
	"testing"

	"mdes/internal/nmt"
)

// TestMemoryBytesIsResidentWeights checks that an F64 engine's MemoryBytes
// (8 bytes per parameter) is what a served pair model really keeps live: a
// trained model holds no gradients or Adam moments, and loading copies of
// it grows the live heap by its weights plus a small fixed overhead (the
// model's RNG and headers), not by the four float64 copies of every weight
// it held while training.
func TestMemoryBytesIsResidentWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := nmt.PairData{
		Src: "a", Tgt: "b",
		TrainSrc: randSentences(rng, 32, 8, 19), TrainTgt: randSentences(rng, 32, 8, 19),
		DevSrc: randSentences(rng, 8, 8, 19), DevTgt: randSentences(rng, 8, 8, 19),
		SrcVocab: 19, TgtVocab: 19,
	}
	cfg := nmt.Config{
		Embed: 16, Hidden: 32, Layers: 1,
		LearningRate: 5e-3, ClipNorm: 5,
		TrainSteps: 5, BatchSize: 4, MaxDecodeLen: 10,
	}
	res := nmt.TrainPair(cfg, data, 3)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Model.HoldsTrainState() {
		t.Fatal("a trained pair model still holds gradients or Adam moments")
	}
	weights := FromModel(res.Model).MemoryBytes()
	if want := 8 * res.Model.ParamCount(); weights != want {
		t.Fatalf("MemoryBytes %d, want 8·ParamCount = %d", weights, want)
	}

	st := res.Model.State()
	const copies = 8
	models := make([]*nmt.Model, copies)
	var before, after runtime.MemStats
	// Two collections: the first only moves pooled workspaces to the
	// victim cache, the second frees them.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range models {
		m, err := nmt.LoadModel(st)
		if err != nil {
			t.Fatal(err)
		}
		models[i] = m
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	perModel := int(after.HeapAlloc-before.HeapAlloc) / copies
	if perModel < weights || perModel > weights*5/4 {
		t.Fatalf("a loaded pair model keeps %d live bytes; its weights are %d (MemoryBytes)", perModel, weights)
	}
	// Whatever the measurement started with must outlive it, or its
	// collection would offset the copies.
	runtime.KeepAlive(models)
	runtime.KeepAlive(st)
	runtime.KeepAlive(res.Model)
}
