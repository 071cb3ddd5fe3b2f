// Package mat provides dense float64 matrices and the small set of linear
// algebra kernels the rest of the library needs: matrix products, axpy-style
// updates, row/column reductions, softmax, and weight initialisation.
//
// Matrices are stored row-major in a single flat slice, which keeps hot loops
// cache-friendly and allocation-free once buffers exist. All operations are
// deterministic; randomised initialisers take an explicit *rand.Rand.
package mat

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense, row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (length rows*cols) in a Matrix without copying.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (no copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero sets every element to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// XavierFill initialises m with Glorot-uniform values for a fan-in/fan-out
// pair derived from the matrix shape, using rng for reproducibility.
func (m *Matrix) XavierFill(rng *rand.Rand) {
	limit := math.Sqrt(6.0 / float64(m.Rows+m.Cols))
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * limit
	}
}

// UniformFill initialises m with uniform values in [-scale, scale].
func (m *Matrix) UniformFill(rng *rand.Rand, scale float64) {
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * scale
	}
}

// Equal reports whether m and n have identical shape and elements within eps.
func (m *Matrix) Equal(n *Matrix, eps float64) bool {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(v-n.Data[i]) > eps {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
}

// The mat-vec kernels below each compute an output element as one strictly
// sequential chain of `s += w·x` — the chain of the naive scalar loop, so
// results are bit-identical to it, including the sign of zeros and NaN/Inf
// propagation. Two implementations share the work and keep that chain: the
// AVX kernels (kernels_amd64.go, when simdOn) take the output elements in
// whole vectors of four, lanes across elements, and the portable loops below
// take the rest — all of them without SIMD. The portable loops are
// row-blocked (four rows per pass over the vector), which amortises loads and
// loop overhead without touching any element's order of adds.
// blocked_test.go pins both against the naive loops bit for bit.

// checkVec panics unless the two vectors handed to a kernel of m have lengths
// n1 and n2. Like checkVec32 it is deliberately unannotated: the cold panic
// path allocates its message, which must stay out of the noalloc-checked
// kernel bodies.
func checkVec(op string, m *Matrix, n1, n2, got1, got2 int) {
	if got1 != n1 || got2 != n2 {
		panic(fmt.Sprintf("mat: %s shape mismatch: %dx%d matrix takes vectors of %d and %d, got %d and %d",
			op, m.Rows, m.Cols, n1, n2, got1, got2))
	}
}

// MulVec computes dst = m · x where x has length m.Cols and dst length m.Rows.
// dst must not alias x.
//
//mdes:noalloc
func (m *Matrix) MulVec(dst, x []float64) {
	checkVec("MulVec", m, m.Cols, m.Rows, len(x), len(dst))
	m.mulVec(dst, x, false)
}

// MulVecAdd computes dst += m · x.
//
//mdes:noalloc
func (m *Matrix) MulVecAdd(dst, x []float64) {
	checkVec("MulVecAdd", m, m.Cols, m.Rows, len(x), len(dst))
	m.mulVec(dst, x, true)
}

// mulVec is the kernel behind MulVec (add false) and MulVecAdd: every row's
// sum starts at +0, runs over j in increasing order and is then stored or
// added to dst. The AVX kernel takes the rows in blocks of four.
//
//mdes:noalloc
func (m *Matrix) mulVec(dst, x []float64, add bool) {
	n := m.Cols
	i := 0
	if simdOn && m.Rows >= 4 && n > 0 {
		mulVecF64AVX(&dst[0], &m.Data[0], &x[0], m.Rows, n, add)
		i = m.Rows &^ 3
	}
	for ; i+4 <= m.Rows; i += 4 {
		r0 := m.Data[(i+0)*n : (i+0)*n+n]
		r1 := m.Data[(i+1)*n : (i+1)*n+n]
		r2 := m.Data[(i+2)*n : (i+2)*n+n]
		r3 := m.Data[(i+3)*n : (i+3)*n+n]
		var s0, s1, s2, s3 float64
		for j, xj := range x {
			s0 += r0[j] * xj
			s1 += r1[j] * xj
			s2 += r2[j] * xj
			s3 += r3[j] * xj
		}
		if add {
			s0 += dst[i+0]
			s1 += dst[i+1]
			s2 += dst[i+2]
			s3 += dst[i+3]
		}
		dst[i+0] = s0
		dst[i+1] = s1
		dst[i+2] = s2
		dst[i+3] = s3
	}
	for ; i < m.Rows; i++ {
		row := m.Data[i*n : i*n+n]
		var sum float64
		for j, w := range row {
			sum += w * x[j]
		}
		if add {
			sum += dst[i]
		}
		dst[i] = sum
	}
}

// MulVecT computes dst = mᵀ · x where x has length m.Rows and dst m.Cols.
//
//mdes:noalloc
func (m *Matrix) MulVecT(dst, x []float64) {
	checkVec("MulVecT", m, m.Rows, m.Cols, len(x), len(dst))
	for j := range dst {
		dst[j] = 0
	}
	m.mulVecTAdd(dst, x)
}

// MulVecTAdd computes dst += mᵀ · x.
//
//mdes:noalloc
func (m *Matrix) MulVecTAdd(dst, x []float64) {
	checkVec("MulVecTAdd", m, m.Rows, m.Cols, len(x), len(dst))
	m.mulVecTAdd(dst, x)
}

// mulVecTAdd is the shared kernel behind MulVecT/MulVecTAdd: dst[j] gathers
// w[i][j]·x[i] in increasing i. Rows whose x entry is exactly zero contribute
// nothing and are skipped — the same short-circuit the naive loop takes, kept
// so all forms agree bit for bit (adding w·0 could flip a −0 or turn an Inf
// weight into NaN). The AVX kernel takes the columns in vectors of four; in
// the portable loop a block of rows containing a zero falls back to the
// per-row loop.
//
//mdes:noalloc
func (m *Matrix) mulVecTAdd(dst, x []float64) {
	n := m.Cols
	j0 := 0
	if simdOn && n >= 4 && m.Rows > 0 {
		mulVecTAddF64AVX(&dst[0], &m.Data[0], &x[0], m.Rows, n)
		j0 = n &^ 3
		if j0 == n {
			return
		}
	}
	d := dst[j0:n]
	i := 0
	for ; i+4 <= m.Rows; i += 4 {
		x0, x1, x2, x3 := x[i], x[i+1], x[i+2], x[i+3]
		if x0 == 0 || x1 == 0 || x2 == 0 || x3 == 0 {
			for k := i; k < i+4; k++ {
				xk := x[k]
				if xk == 0 {
					continue
				}
				row := m.Data[k*n+j0 : k*n+n]
				for j, w := range row {
					d[j] += w * xk
				}
			}
			continue
		}
		r0 := m.Data[(i+0)*n+j0 : (i+0)*n+n]
		r1 := m.Data[(i+1)*n+j0 : (i+1)*n+n]
		r2 := m.Data[(i+2)*n+j0 : (i+2)*n+n]
		r3 := m.Data[(i+3)*n+j0 : (i+3)*n+n]
		for j := range d {
			s := d[j]
			s += r0[j] * x0
			s += r1[j] * x1
			s += r2[j] * x2
			s += r3[j] * x3
			d[j] = s
		}
	}
	for ; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.Data[i*n+j0 : i*n+n]
		for j, w := range row {
			d[j] += w * xi
		}
	}
}

// AddOuter accumulates the outer product dst += a ⊗ b, where dst is
// len(a)×len(b), with zero entries of a skipped exactly as the naive loop
// would. The AVX kernel takes the columns in vectors of four; the portable
// loop is row-blocked (four destination rows share one pass over b).
//
//mdes:noalloc
func (m *Matrix) AddOuter(a, b []float64) {
	checkVec("AddOuter", m, m.Rows, m.Cols, len(a), len(b))
	n := m.Cols
	j0 := 0
	if simdOn && n >= 4 && m.Rows > 0 {
		addOuterF64AVX(&m.Data[0], &a[0], &b[0], m.Rows, n)
		j0 = n &^ 3
		if j0 == n {
			return
		}
	}
	b = b[j0:]
	i := 0
	for ; i+4 <= m.Rows; i += 4 {
		a0, a1, a2, a3 := a[i], a[i+1], a[i+2], a[i+3]
		if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 {
			for k := i; k < i+4; k++ {
				ak := a[k]
				if ak == 0 {
					continue
				}
				row := m.Data[k*n+j0 : k*n+n]
				for j, bj := range b {
					row[j] += ak * bj
				}
			}
			continue
		}
		r0 := m.Data[(i+0)*n+j0 : (i+0)*n+n]
		r1 := m.Data[(i+1)*n+j0 : (i+1)*n+n]
		r2 := m.Data[(i+2)*n+j0 : (i+2)*n+n]
		r3 := m.Data[(i+3)*n+j0 : (i+3)*n+n]
		for j, bj := range b {
			r0[j] += a0 * bj
			r1[j] += a1 * bj
			r2[j] += a2 * bj
			r3[j] += a3 * bj
		}
	}
	for ; i < m.Rows; i++ {
		ai := a[i]
		if ai == 0 {
			continue
		}
		row := m.Data[i*n+j0 : i*n+n]
		for j, bj := range b {
			row[j] += ai * bj
		}
	}
}

// axpyMinSIMD is the length from which Axpy's AVX kernel beats its call.
const axpyMinSIMD = 8

// Axpy computes dst += alpha * x for equal-length slices.
//
//mdes:noalloc
func Axpy(alpha float64, x, dst []float64) {
	checkLen32("Axpy", len(x), len(dst))
	i := 0
	if simdOn && len(x) >= axpyMinSIMD {
		axpyF64AVX(&dst[0], &x[0], len(x), alpha)
		i = len(x) &^ 3
	}
	for ; i < len(x); i++ {
		dst[i] += alpha * x[i]
	}
}

// Dot returns the inner product of equal-length slices.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var sum float64
	for i, v := range a {
		sum += v * b[i]
	}
	return sum
}

// Scale multiplies every element of x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	var sum float64
	for _, v := range x {
		sum += v * v
	}
	return math.Sqrt(sum)
}

// Softmax writes softmax(x) into dst (may alias x). It is numerically stable
// against large logits.
func Softmax(dst, x []float64) {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("mat: Softmax length mismatch %d vs %d", len(dst), len(x)))
	}
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
		e := math.Exp(v - maxV)
		dst[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range dst {
		dst[i] *= inv
	}
}

// LogSumExp returns log(Σ exp(x_i)) computed stably.
func LogSumExp(x []float64) float64 {
	if len(x) == 0 {
		return math.Inf(-1)
	}
	maxV := x[0]
	for _, v := range x[1:] {
		if v > maxV {
			maxV = v
		}
	}
	var sum float64
	for _, v := range x {
		sum += math.Exp(v - maxV)
	}
	return maxV + math.Log(sum)
}

// ArgMax returns the index of the largest element (first on ties); -1 for an
// empty slice.
func ArgMax(x []float64) int {
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

// Tanh applies tanh element-wise in place.
func Tanh(x []float64) {
	for i, v := range x {
		x[i] = math.Tanh(v)
	}
}

// Sigmoid applies the logistic function element-wise in place.
func Sigmoid(x []float64) {
	for i, v := range x {
		x[i] = 1 / (1 + math.Exp(-v))
	}
}

// SigTanhGates applies the LSTM gate nonlinearities in one fused pass over a
// packed i|f|g|o pre-activation vector of length 4h: sigmoid on the input,
// forget, and output segments and tanh on the candidate segment. Each element
// gets exactly the arithmetic Sigmoid/Tanh would apply, so the fusion is
// bit-identical to four separate slice passes.
func SigTanhGates(gates []float64, h int) {
	if len(gates) != 4*h {
		panic(fmt.Sprintf("mat: SigTanhGates length %d, want 4*%d", len(gates), h))
	}
	for i, v := range gates[:2*h] {
		gates[i] = 1 / (1 + math.Exp(-v))
	}
	for i, v := range gates[2*h : 3*h] {
		gates[2*h+i] = math.Tanh(v)
	}
	for i, v := range gates[3*h:] {
		gates[3*h+i] = 1 / (1 + math.Exp(-v))
	}
}
