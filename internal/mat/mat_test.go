package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapesAndAccess(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("New(3,4) = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v, want 7.5", got)
	}
	row := m.Row(1)
	if len(row) != 4 || row[2] != 7.5 {
		t.Fatalf("Row(1) = %v", row)
	}
	row[0] = 9 // views alias the backing store
	if m.At(1, 0) != 9 {
		t.Fatal("Row must be a view, not a copy")
	}
}

func TestFromSlice(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	m := FromSlice(2, 3, data)
	if m.At(1, 2) != 6 {
		t.Fatalf("At(1,2) = %v, want 6", m.At(1, 2))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with bad length must panic")
		}
	}()
	FromSlice(2, 2, data)
}

func TestCloneIsDeep(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must not alias the original")
	}
	if !m.Equal(m, 0) {
		t.Fatal("matrix must equal itself")
	}
	if m.Equal(c, 0) {
		t.Fatal("differing matrices must not be Equal")
	}
}

func TestMulVec(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	x := []float64{1, 0, -1}
	dst := make([]float64, 2)
	m.MulVec(dst, x)
	want := []float64{-2, -2}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("MulVec = %v, want %v", dst, want)
		}
	}
	m.MulVecAdd(dst, x)
	if dst[0] != -4 || dst[1] != -4 {
		t.Fatalf("MulVecAdd = %v, want [-4 -4]", dst)
	}
}

func TestMulVecT(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	x := []float64{1, -1}
	dst := make([]float64, 3)
	m.MulVecT(dst, x)
	want := []float64{-3, -3, -3}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("MulVecT = %v, want %v", dst, want)
		}
	}
	m.MulVecTAdd(dst, x)
	if dst[0] != -6 {
		t.Fatalf("MulVecTAdd = %v", dst)
	}
}

// MulVecT must agree with an explicitly transposed MulVec.
func TestMulVecTMatchesTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := New(5, 7)
	m.XavierFill(rng)
	mt := New(7, 5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 7; j++ {
			mt.Set(j, i, m.At(i, j))
		}
	}
	x := make([]float64, 5)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	a := make([]float64, 7)
	b := make([]float64, 7)
	m.MulVecT(a, x)
	mt.MulVec(b, x)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatalf("MulVecT disagrees with transpose at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestAddOuter(t *testing.T) {
	m := New(2, 3)
	m.AddOuter([]float64{1, 2}, []float64{3, 4, 5})
	if m.At(1, 2) != 10 || m.At(0, 0) != 3 {
		t.Fatalf("AddOuter result %v", m.Data)
	}
	m.AddOuter([]float64{0, 1}, []float64{1, 1, 1})
	if m.At(0, 0) != 3 || m.At(1, 0) != 7 {
		t.Fatalf("AddOuter accumulate result %v", m.Data)
	}
}

func TestAxpyDotScaleNorm(t *testing.T) {
	x := []float64{1, 2, 3}
	dst := []float64{1, 1, 1}
	Axpy(2, x, dst)
	if dst[2] != 7 {
		t.Fatalf("Axpy = %v", dst)
	}
	if got := Dot(x, x); got != 14 {
		t.Fatalf("Dot = %v, want 14", got)
	}
	Scale(0.5, x)
	if x[1] != 1 {
		t.Fatalf("Scale = %v", x)
	}
}

func TestSoftmaxProperties(t *testing.T) {
	x := []float64{1, 2, 3, 1000} // large logit: must not overflow
	dst := make([]float64, len(x))
	Softmax(dst, x)
	var sum float64
	for _, v := range dst {
		if v < 0 || v > 1 || math.IsNaN(v) {
			t.Fatalf("softmax out of range: %v", dst)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("softmax sums to %v", sum)
	}
	if ArgMax(dst) != 3 {
		t.Fatalf("softmax should preserve argmax, got %d", ArgMax(dst))
	}
}

func TestSoftmaxSumsToOneQuick(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		x := []float64{clamp(a), clamp(b), clamp(c), clamp(d)}
		dst := make([]float64, 4)
		Softmax(dst, x)
		var sum float64
		for _, v := range dst {
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func clamp(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 1e6)
}

func TestArgMax(t *testing.T) {
	cases := []struct {
		in   []float64
		want int
	}{
		{nil, -1},
		{[]float64{3}, 0},
		{[]float64{1, 3, 2}, 1},
		{[]float64{5, 5, 5}, 0}, // first on ties
		{[]float64{-2, -1, -9}, 1},
	}
	for _, tc := range cases {
		if got := ArgMax(tc.in); got != tc.want {
			t.Errorf("ArgMax(%v) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestTanhSigmoid(t *testing.T) {
	x := []float64{0, 1000, -1000}
	Tanh(x)
	if x[0] != 0 || x[1] != 1 || x[2] != -1 {
		t.Fatalf("Tanh = %v", x)
	}
	y := []float64{0, 1000, -1000}
	Sigmoid(y)
	if y[0] != 0.5 || y[1] != 1 || y[2] != 0 {
		t.Fatalf("Sigmoid = %v", y)
	}
}

func TestXavierFillDeterministic(t *testing.T) {
	a := New(4, 4)
	b := New(4, 4)
	a.XavierFill(rand.New(rand.NewSource(7)))
	b.XavierFill(rand.New(rand.NewSource(7)))
	if !a.Equal(b, 0) {
		t.Fatal("XavierFill must be deterministic for a fixed seed")
	}
	limit := math.Sqrt(6.0 / 8.0)
	for _, v := range a.Data {
		if math.Abs(v) > limit {
			t.Fatalf("Xavier value %v outside ±%v", v, limit)
		}
	}
}

func TestZeroFill(t *testing.T) {
	m := New(2, 2)
	m.Fill(3)
	if m.At(1, 1) != 3 {
		t.Fatal("Fill failed")
	}
	m.Zero()
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("Zero failed")
		}
	}
}

func TestShapePanics(t *testing.T) {
	m := New(2, 3)
	assertPanics(t, func() { m.MulVec(make([]float64, 2), make([]float64, 2)) })
	assertPanics(t, func() { m.MulVecT(make([]float64, 2), make([]float64, 3)) })
	assertPanics(t, func() { m.AddOuter(make([]float64, 3), make([]float64, 3)) })
	assertPanics(t, func() { Axpy(1, make([]float64, 1), make([]float64, 2)) })
	assertPanics(t, func() { Dot(make([]float64, 1), make([]float64, 2)) })
	assertPanics(t, func() { New(-1, 2) })
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}
