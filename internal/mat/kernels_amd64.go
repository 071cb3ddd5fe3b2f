package mat

// Assembly kernel declarations (kernels_amd64.s), two families behind one
// gate (simdOn).
//
// The float32/int8 family serves frozen-model scoring (internal/infer). Each
// kernel processes the largest vector-aligned prefix; callers finish the tail
// with portable Go. The int8 kernels are integer arithmetic throughout, so
// they return bit-identical sums to the portable loop; the float32 kernels
// use FMA and 8-lane accumulation and round differently than scalar code —
// scoring is deterministic per platform, and all correctness gates are
// relative (batch==single, parity vs float64), never golden float32 bits.
//
// The float64 family (the *F64AVX kernels at the end) serves training and
// exact scoring. It is FMA-free — separate multiply and add, two roundings,
// like scalar MULSD+ADDSD — with lanes across output elements only, so each
// element's chain of adds is the portable loop's, in the same order:
// SetSIMD(true) and SetSIMD(false) give the same bits on amd64 built at the
// default GOAMD64=v1. That is the whole contract. At GOAMD64=v3 and on arm64
// the compiler itself fuses the portable loops, so results were never
// bit-identical across architectures or GOAMD64 levels; and which payload a
// NaN carries is unspecified (that a value is NaN is not).

// axpy4AVX computes di[j] += a[0]·b0[j] + a[1]·b1[j] + a[2]·b2[j] + a[3]·b3[j]
// for j in [0, n&^7), where b row i starts at b+i·stride floats.
//
//go:noescape
func axpy4AVX(di, b *float32, stride, n int, a *float32)

// axpy1AVX computes di[j] += a·b[j] for j in [0, n&^7).
//
//go:noescape
func axpy1AVX(di, b *float32, n int, a float32)

// dotQ8AVX returns Σ w[j]·x[j] over j in [0, n&^15) in int32.
//
//go:noescape
func dotQ8AVX(w, x *int8, n int) int32

// dotQ8x4AVX computes out[i] = Σ w_i[j]·x[j] over j in [0, n&^15) for the
// four int8 rows starting at w, w+stride, w+2·stride, w+3·stride, sharing one
// load of x across rows. Exact integer sums — bit-identical to scalar.
//
//go:noescape
func dotQ8x4AVX(w *int8, stride int, x *int8, n int, out *int32)

// maxAbs8AVX returns max |x[j]| over j in [0, n&^7); 0 for an empty span.
//
//go:noescape
func maxAbs8AVX(x *float32, n int) float32

// quantVec8AVX quantizes x[j]*inv with round-half-away-from-zero and ±127
// clamping into dst for j in [0, n&^7) — operation-for-operation the scalar
// QuantizeVec8 loop, so codes are bit-identical to the portable path.
//
//go:noescape
func quantVec8AVX(dst *int8, x *float32, n int, inv float32)

// vsigmoidAVX computes x[j] = 1/(1+e^(-x[j])) in place for j in [0, n&^7)
// with a degree-6 polynomial exp core (~2e-7 relative error).
//
//go:noescape
func vsigmoidAVX(x *float32, n int)

// vtanhAVX computes x[j] = tanh(x[j]) in place for j in [0, n&^7) via
// 1 - 2/(e^(2x)+1) on the same exp core.
//
//go:noescape
func vtanhAVX(x *float32, n int)

// mulVecF64AVX computes dst[i] = Σ_j w[i][j]·x[j] (dst[i] += … when add) for
// the rows i in [0, rows&^3) of the row-major rows×cols matrix at w, every
// column included; the caller computes the last rows%4 rows.
//
//go:noescape
func mulVecF64AVX(dst, w, x *float64, rows, cols int, add bool)

// mulVecTAddF64AVX computes dst[j] += Σ_i w[i][j]·x[i] for the columns j in
// [0, cols&^3), skipping rows whose x[i] is ±0; the caller computes the last
// cols%4 columns. rows must be positive.
//
//go:noescape
func mulVecTAddF64AVX(dst, w, x *float64, rows, cols int)

// addOuterF64AVX computes w[i][j] += a[i]·b[j] for the columns j in
// [0, cols&^3), skipping rows whose a[i] is ±0; the caller computes the last
// cols%4 columns. rows must be positive.
//
//go:noescape
func addOuterF64AVX(w, a, b *float64, rows, cols int)

// axpyF64AVX computes dst[j] += alpha·x[j] for j in [0, n&^3).
//
//go:noescape
func axpyF64AVX(dst, x *float64, n int, alpha float64)
