package mat

import (
	"math"
	"math/rand"
	"testing"
)

func randMatrix32(rng *rand.Rand, rows, cols int) *Matrix32 {
	m := NewMatrix32(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
		if rng.Intn(7) == 0 {
			m.Data[i] = 0
		}
	}
	return m
}

func TestMulVec32MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, rows := range []int{1, 3, 4, 7, 12} {
		m := randMatrix32(rng, rows, 9)
		x := make([]float32, 9)
		for i := range x {
			x[i] = float32(rng.NormFloat64())
		}
		got := make([]float32, rows)
		m.MulVec(got, x)
		for i := 0; i < rows; i++ {
			var want float32
			for j, xj := range x {
				want += m.At(i, j) * xj
			}
			if math.Float32bits(want) != math.Float32bits(got[i]) {
				t.Fatalf("rows=%d row %d: got %v want %v", rows, i, got[i], want)
			}
		}
		acc := make([]float32, rows)
		copy(acc, got)
		m.MulVecAdd(acc, x)
		for i := range acc {
			if math.Float32bits(acc[i]) != math.Float32bits(got[i]+got[i]) {
				t.Fatalf("MulVecAdd row %d: got %v want %v", i, acc[i], got[i]+got[i])
			}
		}
	}
}

// TestMulMat32BatchRowEqualsSingleRow pins the invariant the batched scorer
// depends on: scoring a sentence in a batch of 64 yields bit-identical
// results to scoring it alone, because each GEMM output row only reads its
// own input row.
func TestMulMat32BatchRowEqualsSingleRow(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randMatrix32(rng, 16, 24)
	w := randMatrix32(rng, 24, 10)
	batch := NewMatrix32(16, 10)
	a.MulMat(batch, w)
	for i := 0; i < a.Rows; i++ {
		single := &Matrix32{Rows: 1, Cols: a.Cols, Data: a.Row(i)}
		out := NewMatrix32(1, 10)
		single.MulMat(out, w)
		for j, v := range out.Row(0) {
			if math.Float32bits(v) != math.Float32bits(batch.At(i, j)) {
				t.Fatalf("row %d col %d: batch %v single %v", i, j, batch.At(i, j), v)
			}
		}
	}
	// MulMatAdd accumulates in place; batched must equal per-row exactly.
	acc := NewMatrix32(16, 10)
	copy(acc.Data, batch.Data)
	a.MulMatAdd(acc, w)
	for i := 0; i < a.Rows; i++ {
		single := &Matrix32{Rows: 1, Cols: a.Cols, Data: a.Row(i)}
		out := NewMatrix32(1, 10)
		copy(out.Data, batch.Row(i))
		single.MulMatAdd(out, w)
		for j, v := range out.Row(0) {
			if math.Float32bits(v) != math.Float32bits(acc.At(i, j)) {
				t.Fatalf("MulMatAdd row %d col %d: batch %v single %v", i, j, acc.At(i, j), v)
			}
		}
	}
}

func TestTo32AndT32(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	c := m.To32()
	tr := m.T32()
	if c.Rows != 2 || c.Cols != 3 || tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("shapes: %dx%d and %dx%d", c.Rows, c.Cols, tr.Rows, tr.Cols)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if c.At(i, j) != float32(m.At(i, j)) || tr.At(j, i) != float32(m.At(i, j)) {
				t.Fatalf("element (%d,%d) mismatch", i, j)
			}
		}
	}
}

func TestSoftmax32(t *testing.T) {
	x := []float32{1, 2, 3, 4}
	dst := make([]float32, 4)
	Softmax32(dst, x)
	var sum float32
	for i := 1; i < len(dst); i++ {
		if dst[i] <= dst[i-1] {
			t.Fatalf("softmax not monotone on monotone input: %v", dst)
		}
	}
	for _, v := range dst {
		sum += v
	}
	if math.Abs(float64(sum)-1) > 1e-5 {
		t.Fatalf("softmax sum %v", sum)
	}
	// Large logits must not overflow.
	Softmax32(dst, []float32{1e4, 1e4 - 1, 0, -1e4})
	if dst[0] <= dst[1] || dst[0] > 1 {
		t.Fatalf("unstable softmax: %v", dst)
	}
	// -Inf mask yields exactly zero weight.
	Softmax32(dst, []float32{0, float32(math.Inf(-1)), 0, 0})
	if dst[1] != 0 {
		t.Fatalf("masked logit got weight %v", dst[1])
	}
}

func TestFloat32Helpers(t *testing.T) {
	a := []float32{1, -2, 3}
	b := []float32{4, 5, -6}
	if got := Dot32(a, b); got != 1*4+(-2)*5+3*(-6) {
		t.Fatalf("Dot32 = %v", got)
	}
	dst := []float32{1, 1, 1}
	Axpy32(2, a, dst)
	if dst[0] != 3 || dst[1] != -3 || dst[2] != 7 {
		t.Fatalf("Axpy32 = %v", dst)
	}
	Add32(a, dst)
	if dst[0] != 4 || dst[1] != -5 || dst[2] != 10 {
		t.Fatalf("Add32 = %v", dst)
	}
	if ArgMax32([]float32{1, 5, 5, 2}) != 1 {
		t.Fatal("ArgMax32 tie-break")
	}
	if ArgMax32(nil) != -1 {
		t.Fatal("ArgMax32 empty")
	}
	x := []float32{-1, 0, 1}
	Tanh32(x)
	if x[1] != 0 || math.Abs(float64(x[2])-math.Tanh(1)) > 1e-6 || x[0] != -x[2] {
		t.Fatalf("Tanh32 = %v", x)
	}
}

func TestSigTanhGates32MatchesFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	h := 6
	g64 := make([]float64, 4*h)
	g32 := make([]float32, 4*h)
	for i := range g64 {
		g64[i] = rng.NormFloat64() * 3
		g32[i] = float32(g64[i])
	}
	SigTanhGates(g64, h)
	SigTanhGates32(g32, h)
	for i := range g32 {
		if math.Abs(float64(g32[i])-g64[i]) > 1e-6 {
			t.Fatalf("gate %d: f32 %v vs f64 %v", i, g32[i], g64[i])
		}
	}
}

func TestMulMatShapePanics(t *testing.T) {
	a, b := NewMatrix32(2, 3), NewMatrix32(4, 2)
	assertPanics(t, func() { a.MulMat(NewMatrix32(2, 2), b) })
	assertPanics(t, func() { a.MulMatAdd(NewMatrix32(2, 2), b) })
}
