package forest

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// separable builds a dataset where feature 0 alone separates the classes and
// feature 1 is pure noise.
func separable(rng *rand.Rand, n int) ([][]float64, []bool) {
	x := make([][]float64, n)
	y := make([]bool, n)
	for i := range x {
		pos := i%2 == 0
		v := rng.NormFloat64()*0.3 - 1
		if pos {
			v = rng.NormFloat64()*0.3 + 1
		}
		x[i] = []float64{v, rng.NormFloat64()}
		y[i] = pos
	}
	return x, y
}

func TestValidateAndErrors(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Config{Trees: 0}).Validate(); err == nil {
		t.Fatal("Trees=0 must be rejected")
	}
	if _, err := Train(context.Background(), nil, nil, Default()); err != ErrNoData {
		t.Fatalf("empty train err = %v", err)
	}
	x := [][]float64{{1}, {2}}
	if _, err := Train(context.Background(), x, []bool{true, true}, Default()); err != ErrSingleClass {
		t.Fatalf("single class err = %v", err)
	}
	if _, err := Train(context.Background(), x, []bool{true}, Default()); err != ErrNoData {
		t.Fatalf("mismatched labels err = %v", err)
	}
}

func TestLearnsSeparableData(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, y := separable(rng, 200)
	cfg := Default()
	cfg.Trees = 30
	f, err := Train(context.Background(), x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := 0; i < 100; i++ {
		xt, yt := separable(rng, 1)
		if f.Predict(xt[0]) == yt[0] {
			correct++
		}
	}
	if correct < 95 {
		t.Fatalf("accuracy %d/100 on separable data", correct)
	}
}

func TestLearnsXOR(t *testing.T) {
	// XOR is not linearly separable; trees handle it via two splits.
	rng := rand.New(rand.NewSource(2))
	gen := func(n int) ([][]float64, []bool) {
		x := make([][]float64, n)
		y := make([]bool, n)
		for i := range x {
			a, b := rng.Float64() > 0.5, rng.Float64() > 0.5
			x[i] = []float64{
				indicator(a) + rng.NormFloat64()*0.1,
				indicator(b) + rng.NormFloat64()*0.1,
			}
			y[i] = a != b
		}
		return x, y
	}
	x, y := gen(300)
	cfg := Default()
	cfg.Trees = 50
	cfg.FeaturesPerSplit = 2
	f, err := Train(context.Background(), x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	xt, yt := gen(100)
	correct := 0
	for i := range xt {
		if f.Predict(xt[i]) == yt[i] {
			correct++
		}
	}
	if correct < 90 {
		t.Fatalf("XOR accuracy %d/100", correct)
	}
}

func indicator(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func TestFeatureImportances(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, y := separable(rng, 300)
	cfg := Default()
	cfg.Trees = 30
	f, err := Train(context.Background(), x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	imp := f.FeatureImportances()
	if len(imp) != 2 {
		t.Fatalf("importances = %v", imp)
	}
	var sum float64
	for _, v := range imp {
		if v < 0 {
			t.Fatalf("negative importance: %v", imp)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("importances sum to %v", sum)
	}
	if imp[0] <= imp[1] {
		t.Fatalf("informative feature not ranked first: %v", imp)
	}
}

func TestPredictProbaRange(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, y := separable(rng, 100)
	cfg := Default()
	cfg.Trees = 10
	f, err := Train(context.Background(), x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		p := f.PredictProba([]float64{rng.NormFloat64() * 2, rng.NormFloat64()})
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Fatalf("proba = %v", p)
		}
	}
	if !math.IsNaN(f.PredictProba([]float64{1})) {
		t.Fatal("wrong-width input must return NaN")
	}
}

func TestDeterministicForSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, y := separable(rng, 120)
	cfg := Default()
	cfg.Trees = 15
	f1, err := Train(context.Background(), x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Train(context.Background(), x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.2, -0.4}
	if f1.PredictProba(probe) != f2.PredictProba(probe) {
		t.Fatal("training must be deterministic for a fixed seed")
	}
}

func TestMaxDepthAndMinLeafRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x, y := separable(rng, 100)
	cfg := Default()
	cfg.Trees = 5
	cfg.MaxDepth = 1
	f, err := Train(context.Background(), x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range f.trees {
		// Depth-1 trees have at most 3 nodes (root + two leaves).
		if len(tr.nodes) > 3 {
			t.Fatalf("depth-1 tree has %d nodes", len(tr.nodes))
		}
	}
	cfg.MaxDepth = 0
	cfg.MinLeaf = 50
	f, err = Train(context.Background(), x, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range f.trees {
		if len(tr.nodes) > 3 {
			t.Fatalf("minleaf-50 tree has %d nodes", len(tr.nodes))
		}
	}
}
