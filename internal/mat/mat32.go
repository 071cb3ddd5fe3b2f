package mat

import (
	"fmt"
	"math"
)

// This file is the float32 mirror of the dense kernels. The inference path
// (internal/infer) runs scoring in float32: half the memory traffic of
// float64 on the bandwidth-bound GEMM/GEMV loops, with BLEU-ranking
// stability vs float64 asserted by the quantized-parity tests. Training
// stays float64.

// Matrix32 is a dense, row-major float32 matrix.
type Matrix32 struct {
	Rows, Cols int
	Data       []float32
}

// NewMatrix32 returns a zeroed rows×cols float32 matrix.
func NewMatrix32(rows, cols int) *Matrix32 {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix32{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// To32 returns a float32 copy of m (each element rounded to nearest).
func (m *Matrix) To32() *Matrix32 {
	out := NewMatrix32(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = float32(v)
	}
	return out
}

// T32 returns the transpose of m as a fresh matrix. The inference engine
// stores GEMM weights pre-transposed (in×out) so batched products stream
// rows of both operands.
func (m *Matrix) T32() *Matrix32 {
	out := NewMatrix32(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*m.Rows+i] = float32(v)
		}
	}
	return out
}

// At returns element (i, j).
func (m *Matrix32) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Row returns a view (no copy) of row i.
func (m *Matrix32) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Zero sets every element to 0.
func (m *Matrix32) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// checkGEMM panics on shape mismatches shared by the GEMM kernels. Like the
// other check helpers it is deliberately unannotated: the cold panic path
// allocates its message, which must stay out of the noalloc-checked kernel
// bodies.
func checkGEMM(op string, dr, dc, ar, ac, br, bc int) {
	if ac != br || dr != ar || dc != bc {
		panic(fmt.Sprintf("mat: %s shape mismatch %dx%d · %dx%d -> %dx%d",
			op, ar, ac, br, bc, dr, dc))
	}
}

// checkVec32 panics on a mat-vec shape mismatch (unannotated, see checkGEMM).
func checkVec32(op string, rows, cols, nx, ndst int) {
	if nx != cols || ndst != rows {
		panic(fmt.Sprintf("mat: %s shape mismatch %dx%d · %d -> %d", op, rows, cols, nx, ndst))
	}
}

// checkLen32 panics when two kernel operand lengths disagree (unannotated,
// see checkVec32).
func checkLen32(op string, got, want int) {
	if got != want {
		panic(fmt.Sprintf("mat: %s length mismatch %d vs %d", op, got, want))
	}
}

// MulVec computes dst = m · x (same 4-row blocking as the float64 kernel;
// bit-identical to the naive loop).
//
//mdes:noalloc
func (m *Matrix32) MulVec(dst, x []float32) {
	checkVec32("MulVec32", m.Rows, m.Cols, len(x), len(dst))
	n := m.Cols
	i := 0
	for ; i+4 <= m.Rows; i += 4 {
		r0 := m.Data[(i+0)*n : (i+0)*n+n]
		r1 := m.Data[(i+1)*n : (i+1)*n+n]
		r2 := m.Data[(i+2)*n : (i+2)*n+n]
		r3 := m.Data[(i+3)*n : (i+3)*n+n]
		var s0, s1, s2, s3 float32
		for j, xj := range x {
			s0 += r0[j] * xj
			s1 += r1[j] * xj
			s2 += r2[j] * xj
			s3 += r3[j] * xj
		}
		dst[i+0] = s0
		dst[i+1] = s1
		dst[i+2] = s2
		dst[i+3] = s3
	}
	for ; i < m.Rows; i++ {
		row := m.Data[i*n : i*n+n]
		var sum float32
		for j, w := range row {
			sum += w * x[j]
		}
		dst[i] = sum
	}
}

// MulVecAdd computes dst += m · x.
//
//mdes:noalloc
func (m *Matrix32) MulVecAdd(dst, x []float32) {
	checkVec32("MulVecAdd32", m.Rows, m.Cols, len(x), len(dst))
	n := m.Cols
	i := 0
	for ; i+4 <= m.Rows; i += 4 {
		r0 := m.Data[(i+0)*n : (i+0)*n+n]
		r1 := m.Data[(i+1)*n : (i+1)*n+n]
		r2 := m.Data[(i+2)*n : (i+2)*n+n]
		r3 := m.Data[(i+3)*n : (i+3)*n+n]
		var s0, s1, s2, s3 float32
		for j, xj := range x {
			s0 += r0[j] * xj
			s1 += r1[j] * xj
			s2 += r2[j] * xj
			s3 += r3[j] * xj
		}
		dst[i+0] += s0
		dst[i+1] += s1
		dst[i+2] += s2
		dst[i+3] += s3
	}
	for ; i < m.Rows; i++ {
		row := m.Data[i*n : i*n+n]
		var sum float32
		for j, w := range row {
			sum += w * x[j]
		}
		dst[i] += sum
	}
}

// MulMat computes dst = m · b. Row i of dst is exactly MulVec of b's
// transpose applied to row i of m — every dst element accumulates over k in
// naive order, so batched (GEMM) and per-vector results are bit-identical.
//
//mdes:noalloc
func (m *Matrix32) MulMat(dst, b *Matrix32) {
	checkGEMM("MulMat32", dst.Rows, dst.Cols, m.Rows, m.Cols, b.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		di := dst.Row(i)
		for j := range di {
			di[j] = 0
		}
		m.mulMatRow32(di, m.Row(i), b)
	}
}

// MulMatAdd computes dst += m · b.
//
//mdes:noalloc
func (m *Matrix32) MulMatAdd(dst, b *Matrix32) {
	checkGEMM("MulMatAdd32", dst.Rows, dst.Cols, m.Rows, m.Cols, b.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		m.mulMatRow32(dst.Row(i), m.Row(i), b)
	}
}

// mulMatRow32 accumulates di += ai · b for one output row, four b-rows per
// pass, in the row-major ikj ("axpy") form that streams rows of b against a
// handful of scalars from a. The portable update of di[j] takes its four
// terms one after the other, so each di[j] accumulates over k in exactly the
// naive order. On amd64 with AVX2+FMA the
// vector-aligned span runs through the fused kernels in kernels_amd64.s;
// fused rounding differs from the scalar path in low-order bits, so float32
// results are deterministic per platform rather than across platforms (every
// correctness gate on this path is relative, never golden bits).
//
//mdes:noalloc
func (m *Matrix32) mulMatRow32(di, ai []float32, b *Matrix32) {
	n := b.Cols
	k := 0
	if simdOn && n >= 8 {
		n8 := n &^ 7
		for ; k+4 <= b.Rows; k += 4 {
			a := (*[4]float32)(ai[k : k+4])
			if a[0] == 0 && a[1] == 0 && a[2] == 0 && a[3] == 0 {
				continue
			}
			axpy4AVX(&di[0], &b.Data[k*n], n, n, &a[0])
			for j := n8; j < n; j++ {
				s := di[j]
				s += a[0] * b.Data[(k+0)*n+j]
				s += a[1] * b.Data[(k+1)*n+j]
				s += a[2] * b.Data[(k+2)*n+j]
				s += a[3] * b.Data[(k+3)*n+j]
				di[j] = s
			}
		}
		for ; k < b.Rows; k++ {
			ak := ai[k]
			if ak == 0 {
				continue
			}
			axpy1AVX(&di[0], &b.Data[k*n], n, ak)
			for j := n8; j < n; j++ {
				di[j] += ak * b.Data[k*n+j]
			}
		}
		return
	}
	for ; k+4 <= b.Rows; k += 4 {
		a0, a1, a2, a3 := ai[k], ai[k+1], ai[k+2], ai[k+3]
		b0 := b.Data[(k+0)*n : (k+0)*n+n]
		b1 := b.Data[(k+1)*n : (k+1)*n+n]
		b2 := b.Data[(k+2)*n : (k+2)*n+n]
		b3 := b.Data[(k+3)*n : (k+3)*n+n]
		if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 {
			for kk := k; kk < k+4; kk++ {
				akk := ai[kk]
				if akk == 0 {
					continue
				}
				row := b.Data[kk*n : kk*n+n]
				for j, w := range row {
					di[j] += akk * w
				}
			}
			continue
		}
		for j := range di {
			s := di[j]
			s += a0 * b0[j]
			s += a1 * b1[j]
			s += a2 * b2[j]
			s += a3 * b3[j]
			di[j] = s
		}
	}
	for ; k < b.Rows; k++ {
		ak := ai[k]
		if ak == 0 {
			continue
		}
		row := b.Data[k*n : k*n+n]
		for j, w := range row {
			di[j] += ak * w
		}
	}
}

// Dot32 returns the inner product of equal-length float32 slices.
//
//mdes:noalloc
func Dot32(a, b []float32) float32 {
	checkLen32("Dot32", len(a), len(b))
	var sum float32
	for i, v := range a {
		sum += v * b[i]
	}
	return sum
}

// Axpy32 computes dst += alpha * x.
//
//mdes:noalloc
func Axpy32(alpha float32, x, dst []float32) {
	checkLen32("Axpy32", len(x), len(dst))
	for i, v := range x {
		dst[i] += alpha * v
	}
}

// Add32 computes dst += x.
//
//mdes:noalloc
func Add32(x, dst []float32) {
	checkLen32("Add32", len(x), len(dst))
	for i, v := range x {
		dst[i] += v
	}
}

// Softmax32 writes softmax(x) into dst (may alias x). The exp/normalise
// arithmetic runs in float64 internally for stability; only storage is
// float32.
//
//mdes:noalloc
func Softmax32(dst, x []float32) {
	checkLen32("Softmax32", len(dst), len(x))
	if len(x) == 0 {
		return
	}
	maxV := x[0]
	for _, v := range x[1:] {
		if v > maxV {
			maxV = v
		}
	}
	var sum float64
	for i, v := range x {
		e := math.Exp(float64(v - maxV))
		dst[i] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for i := range dst {
		dst[i] *= inv
	}
}

// ArgMax32 returns the index of the largest element (first on ties); -1 for
// an empty slice.
//
//mdes:noalloc
func ArgMax32(x []float32) int {
	if len(x) == 0 {
		return -1
	}
	best := 0
	for i, v := range x[1:] {
		if v > x[best] {
			best = i + 1
		}
	}
	return best
}

// Tanh32 applies tanh element-wise in place. With SIMD active the
// vector-aligned span runs through the polynomial AVX2 kernel (~2e-7 relative
// error, well under float32 activation noise) and the tail falls back to
// float64 math.Tanh; without SIMD everything takes the float64 path. Like the
// float32 GEMM, results are deterministic per platform/shape, never gated on
// golden bits.
//
//mdes:noalloc
func Tanh32(x []float32) {
	i := 0
	if simdOn && len(x) >= 8 {
		n8 := len(x) &^ 7
		vtanhAVX(&x[0], n8)
		i = n8
	}
	for ; i < len(x); i++ {
		x[i] = float32(math.Tanh(float64(x[i])))
	}
}

// sigmoid32 applies the logistic function element-wise in place (same
// SIMD/tail split as Tanh32).
//
//mdes:noalloc
func sigmoid32(x []float32) {
	i := 0
	if simdOn && len(x) >= 8 {
		n8 := len(x) &^ 7
		vsigmoidAVX(&x[0], n8)
		i = n8
	}
	for ; i < len(x); i++ {
		x[i] = float32(1 / (1 + math.Exp(-float64(x[i]))))
	}
}

// SigTanhGates32 is the float32 counterpart of SigTanhGates: sigmoid on the
// packed input/forget/output gate segments, tanh on the candidate segment.
//
//mdes:noalloc
func SigTanhGates32(gates []float32, h int) {
	checkLen32("SigTanhGates32", len(gates), 4*h)
	sigmoid32(gates[:2*h])
	Tanh32(gates[2*h : 3*h])
	sigmoid32(gates[3*h:])
}
