package mat

import (
	"math"
	"math/rand"
	"testing"
)

// Naive reference kernels: the original scalar loops. The blocked portable
// kernels and the AVX kernels must both agree with these bit for bit — not
// just within an epsilon — because the NMT golden tests assert bit-identical
// training trajectories across kernel changes.

func naiveMulVec(m *Matrix, dst, x []float64) {
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var sum float64
		for j, w := range row {
			sum += w * x[j]
		}
		dst[i] = sum
	}
}

func naiveMulVecAdd(m *Matrix, dst, x []float64) {
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var sum float64
		for j, w := range row {
			sum += w * x[j]
		}
		dst[i] += sum
	}
}

func naiveMulVecTAdd(m *Matrix, dst, x []float64) {
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, w := range row {
			dst[j] += w * xi
		}
	}
}

func naiveAddOuter(m *Matrix, a, b []float64) {
	for i, ai := range a {
		if ai == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, bj := range b {
			row[j] += ai * bj
		}
	}
}

func naiveAxpy(alpha float64, x, dst []float64) {
	for i, v := range x {
		dst[i] += alpha * v
	}
}

// bitEqual compares float64 slices by bit pattern, distinguishing ±0. Two
// NaNs are equal whatever their payloads: which operand's payload survives
// an operation is the instruction selector's choice, not part of the
// kernels' contract.
func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

func randSlice(rng *rand.Rand, n int, zeroFrac float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		if rng.Float64() < zeroFrac {
			continue // leave exact zeros to exercise the skip paths
		}
		out[i] = rng.NormFloat64()
	}
	return out
}

// awkward are the values a vector lane could mishandle where the scalar loop
// does not: signed zeros, infinities, denormals and the ends of the normal
// range.
var awkward = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64,
}

// awkwardSlice mixes awkward values (one element in four) into normal draws.
func awkwardSlice(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		if rng.Intn(4) == 0 {
			out[i] = awkward[rng.Intn(len(awkward))]
		} else {
			out[i] = rng.NormFloat64()
		}
	}
	return out
}

// eachKernelImpl runs f against every implementation of the float64 kernels
// this build has: the portable loops, and the AVX kernels where the CPU runs
// them.
func eachKernelImpl(t *testing.T, f func(t *testing.T)) {
	prev := SetSIMD(false)
	defer SetSIMD(prev)
	t.Run("portable", f)
	SetSIMD(true)
	if SIMDEnabled() {
		t.Run("avx", f)
	}
}

// checkKernels runs all six kernels on one matrix and pair of vectors (x of
// length cols, xt of length rows) against the naive references.
func checkKernels(t *testing.T, m *Matrix, x, xt []float64, rng *rand.Rand) {
	t.Helper()
	rows, cols := m.Rows, m.Cols

	got := make([]float64, rows)
	want := make([]float64, rows)
	m.MulVec(got, x)
	naiveMulVec(m, want, x)
	if !bitEqual(got, want) {
		t.Fatalf("MulVec %dx%d: %v != %v", rows, cols, got, want)
	}

	got = randSlice(rng, rows, 0)
	want = append([]float64(nil), got...)
	m.MulVecAdd(got, x)
	naiveMulVecAdd(m, want, x)
	if !bitEqual(got, want) {
		t.Fatalf("MulVecAdd %dx%d: %v != %v", rows, cols, got, want)
	}

	got = randSlice(rng, cols, 0)
	want = append([]float64(nil), got...)
	m.MulVecTAdd(got, xt)
	naiveMulVecTAdd(m, want, xt)
	if !bitEqual(got, want) {
		t.Fatalf("MulVecTAdd %dx%d: %v != %v", rows, cols, got, want)
	}

	got = randSlice(rng, cols, 0) // MulVecT must overwrite, not accumulate
	want = make([]float64, cols)
	m.MulVecT(got, xt)
	naiveMulVecTAdd(m, want, xt)
	if !bitEqual(got, want) {
		t.Fatalf("MulVecT %dx%d: %v != %v", rows, cols, got, want)
	}

	gotM := m.Clone()
	wantM := m.Clone()
	gotM.AddOuter(xt, x)
	naiveAddOuter(wantM, xt, x)
	if !bitEqual(gotM.Data, wantM.Data) {
		t.Fatalf("AddOuter %dx%d differs", rows, cols)
	}

	for _, alpha := range []float64{xt[0], 1, 0, math.Copysign(0, -1), math.Inf(1), 5e-324} {
		got = append([]float64(nil), m.Data...)
		want = append([]float64(nil), m.Data...)
		src := awkwardSlice(rng, len(got))
		Axpy(alpha, src, got)
		naiveAxpy(alpha, src, want)
		if !bitEqual(got, want) {
			t.Fatalf("Axpy alpha=%v len %d differs", alpha, len(got))
		}
	}
}

// TestBlockedKernelsBitIdentical checks every kernel, portable and AVX,
// against its naive reference bit for bit: over row and column counts around
// the block and vector widths (remainders 0–3), over the shapes training
// uses (4·Hidden, Hidden and vocabulary rows; Hidden, 2·Hidden and odd
// widths), with and without zero multipliers.
func TestBlockedKernelsBitIdentical(t *testing.T) {
	type shape struct{ rows, cols []int }
	shapes := []shape{
		{[]int{1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 33}, []int{1, 3, 4, 8, 17}},
		{[]int{19, 64, 128, 256}, []int{13, 16, 19, 32, 64, 128}},
	}
	eachKernelImpl(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		for _, sh := range shapes {
			for _, rows := range sh.rows {
				for _, cols := range sh.cols {
					for _, zeroFrac := range []float64{0, 0.3, 1} {
						m := New(rows, cols)
						for i := range m.Data {
							m.Data[i] = rng.NormFloat64()
						}
						checkKernels(t, m, randSlice(rng, cols, zeroFrac), randSlice(rng, rows, zeroFrac), rng)
					}
				}
			}
		}
	})
}

// TestBlockedKernelsAwkwardValues feeds the kernels ±Inf, −0, denormals and
// the extremes of the normal range, in weights and vectors alike, on shapes
// with both a row and a column remainder so vector lanes and scalar tails
// all see them.
func TestBlockedKernelsAwkwardValues(t *testing.T) {
	eachKernelImpl(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(4))
		for _, sh := range [][2]int{{19, 19}, {23, 6}, {4, 4}, {37, 35}, {64, 16}} {
			for rep := 0; rep < 20; rep++ {
				m := FromSlice(sh[0], sh[1], awkwardSlice(rng, sh[0]*sh[1]))
				checkKernels(t, m, awkwardSlice(rng, sh[1]), awkwardSlice(rng, sh[0]), rng)
			}
		}
	})
}

// TestBlockedKernelsPreserveZeroSkip pins the semantic reason the zero skip
// exists: a zero multiplier must not touch the destination at all, even when
// the weight is Inf (w·0 would be NaN) or the destination holds −0 — with
// the zero (of either sign) in every row in turn, so every lane position,
// every block and the row remainder take the skip, and with all rows zero.
func TestBlockedKernelsPreserveZeroSkip(t *testing.T) {
	negZero := math.Copysign(0, -1)
	eachKernelImpl(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		for _, sh := range [][2]int{{8, 4}, {19, 19}, {35, 37}} {
			rows, cols := sh[0], sh[1]
			for _, zero := range []float64{0, negZero} {
				// All multipliers zero over an all-Inf matrix: nothing moves.
				m := New(rows, cols)
				m.Fill(math.Inf(1))
				x := make([]float64, rows)
				for i := range x {
					x[i] = zero
				}
				dst := randSlice(rng, cols, 0)
				dst[0] = negZero
				want := append([]float64(nil), dst...)
				m.MulVecTAdd(dst, x)
				if !bitEqual(dst, want) {
					t.Fatalf("%dx%d: zero multipliers must leave dst untouched: %v != %v", rows, cols, dst, want)
				}
				gotM := m.Clone()
				gotM.AddOuter(x, randSlice(rng, cols, 0))
				if !bitEqual(gotM.Data, m.Data) {
					t.Fatalf("%dx%d: AddOuter with all-zero a must not modify the matrix", rows, cols)
				}

				// One zero at row p, that row of the matrix all Inf: a kernel
				// that multiplied instead of skipping would plant NaNs.
				for p := 0; p < rows; p++ {
					m := New(rows, cols)
					for i := range m.Data {
						m.Data[i] = rng.NormFloat64()
					}
					for j := 0; j < cols; j++ {
						m.Set(p, j, math.Inf(1))
					}
					xt := randSlice(rng, rows, 0)
					xt[p] = zero
					got := make([]float64, cols)
					want := make([]float64, cols)
					m.MulVecT(got, xt)
					naiveMulVecTAdd(m, want, xt)
					if !bitEqual(got, want) {
						t.Fatalf("%dx%d zero at row %d: MulVecT %v != %v", rows, cols, p, got, want)
					}
					for _, v := range got {
						if math.IsNaN(v) {
							t.Fatalf("%dx%d zero at row %d: skipped row leaked NaN into %v", rows, cols, p, got)
						}
					}
					b := randSlice(rng, cols, 0)
					b[0] = math.Inf(1) // Inf·0 if row p is not skipped
					gotM, wantM := m.Clone(), m.Clone()
					gotM.AddOuter(xt, b)
					naiveAddOuter(wantM, xt, b)
					if !bitEqual(gotM.Data, wantM.Data) {
						t.Fatalf("%dx%d zero at row %d: AddOuter differs", rows, cols, p)
					}
					if !bitEqual(gotM.Row(p), m.Row(p)) {
						t.Fatalf("%dx%d zero at row %d: AddOuter touched the skipped row", rows, cols, p)
					}
				}
			}
		}
	})
}

// TestSigTanhGatesMatchesUnfused checks the fused gate kernel against the
// separate Sigmoid/Tanh passes bit for bit.
func TestSigTanhGatesMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, h := range []int{1, 2, 5, 32} {
		gates := randSlice(rng, 4*h, 0.1)
		want := append([]float64(nil), gates...)
		SigTanhGates(gates, h)
		Sigmoid(want[0:h])
		Sigmoid(want[h : 2*h])
		Tanh(want[2*h : 3*h])
		Sigmoid(want[3*h : 4*h])
		if !bitEqual(gates, want) {
			t.Fatalf("SigTanhGates h=%d: %v != %v", h, gates, want)
		}
	}
}

func TestSigTanhGatesPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on misaligned gate vector")
		}
	}()
	SigTanhGates(make([]float64, 7), 2)
}

// --- kernel benchmarks ------------------------------------------------------

func benchMatrix(rows, cols int) (*Matrix, []float64, []float64) {
	rng := rand.New(rand.NewSource(9))
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	x := randSlice(rng, cols, 0)
	xt := randSlice(rng, rows, 0)
	return m, x, xt
}

// The float64 kernels at the shapes training runs them: 64×16 is the bench
// model's LSTM gate matrix (4·Hidden × Hidden), 256×64 the paper's, 128×32
// the default configuration's.

func benchMulVec(b *testing.B, rows, cols int) {
	m, x, _ := benchMatrix(rows, cols)
	dst := make([]float64, rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVec(dst, x)
	}
}

func benchMulVecT(b *testing.B, rows, cols int) {
	m, _, xt := benchMatrix(rows, cols)
	dst := make([]float64, cols)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVecT(dst, xt)
	}
}

func benchAddOuter(b *testing.B, rows, cols int) {
	m, x, xt := benchMatrix(rows, cols)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.AddOuter(xt, x)
	}
}

func BenchmarkMulVec64x16(b *testing.B)    { benchMulVec(b, 64, 16) }
func BenchmarkMulVec128x32(b *testing.B)   { benchMulVec(b, 128, 32) }
func BenchmarkMulVec256x64(b *testing.B)   { benchMulVec(b, 256, 64) }
func BenchmarkMulVecT64x16(b *testing.B)   { benchMulVecT(b, 64, 16) }
func BenchmarkMulVecT128x32(b *testing.B)  { benchMulVecT(b, 128, 32) }
func BenchmarkMulVecT256x64(b *testing.B)  { benchMulVecT(b, 256, 64) }
func BenchmarkAddOuter64x16(b *testing.B)  { benchAddOuter(b, 64, 16) }
func BenchmarkAddOuter128x32(b *testing.B) { benchAddOuter(b, 128, 32) }
func BenchmarkAddOuter256x64(b *testing.B) { benchAddOuter(b, 256, 64) }

func BenchmarkAxpy64(b *testing.B) {
	_, x, _ := benchMatrix(1, 64)
	dst := make([]float64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Axpy(0.5, x, dst)
	}
}

func BenchmarkSigTanhGates128(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	gates := randSlice(rng, 128, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SigTanhGates(gates, 32)
	}
}
