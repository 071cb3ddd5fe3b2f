package mdes

import (
	"context"
	"math"
	"testing"

	"mdes/internal/graph"
	"mdes/internal/mat"
)

// TestF64StackSIMDInvariant runs the whole float64 stack — Train, then a cold
// Detect with every cache off, so each window is really encoded, decoded and
// scored — once on the AVX kernels and once on the portable loops. The
// relationship graphs (every pair's BLEU) and the detection points must be
// equal bit for bit: the float64 kernels promise the same bits, not close
// ones. (The f32/int8 engines make no such promise; their gates are relative.)
func TestF64StackSIMDInvariant(t *testing.T) {
	prev := mat.SetSIMD(true)
	defer mat.SetSIMD(prev)
	if !mat.SIMDEnabled() {
		t.Skip("no AVX kernels on this machine")
	}
	ds := memoTraffic(33)
	run := func() ([]graph.Edge, []Point) {
		model := trainTiny(t)
		model.SetTranslationCaching(false)
		points, err := model.Detect(context.Background(), ds)
		if err != nil {
			t.Fatal(err)
		}
		return model.SortedEdges(), points
	}
	simdEdges, simdPoints := run()
	mat.SetSIMD(false)
	portableEdges, portablePoints := run()
	if len(simdEdges) == 0 || len(simdEdges) != len(portableEdges) {
		t.Fatalf("%d edges on AVX, %d on the portable kernels", len(simdEdges), len(portableEdges))
	}
	for i, e := range simdEdges {
		p := portableEdges[i]
		if e.Src != p.Src || e.Tgt != p.Tgt || math.Float64bits(e.Score) != math.Float64bits(p.Score) {
			t.Errorf("edge %d: %+v on AVX, %+v on the portable kernels", i, e, p)
		}
	}
	samePoints(t, "detect on portable kernels vs AVX", portablePoints, simdPoints)
}
