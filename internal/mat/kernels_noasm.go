//go:build !amd64

package mat

// Non-amd64 builds use the portable kernels only.

var simdOn = false

// SIMDEnabled reports whether the AVX2/FMA kernels are active.
func SIMDEnabled() bool { return false }

// SetSIMD is a no-op without assembly kernels; it returns false.
func SetSIMD(on bool) bool { return false }

func axpy4AVX(di, b *float32, stride, n int, a *float32) {
	panic("mat: axpy4AVX without assembly support")
}

func axpy1AVX(di, b *float32, n int, a float32) {
	panic("mat: axpy1AVX without assembly support")
}

func dotQ8AVX(w, x *int8, n int) int32 {
	panic("mat: dotQ8AVX without assembly support")
}

func dotQ8x4AVX(w *int8, stride int, x *int8, n int, out *int32) {
	panic("mat: dotQ8x4AVX without assembly support")
}

func maxAbs8AVX(x *float32, n int) float32 {
	panic("mat: maxAbs8AVX without assembly support")
}

func quantVec8AVX(dst *int8, x *float32, n int, inv float32) {
	panic("mat: quantVec8AVX without assembly support")
}

func vsigmoidAVX(x *float32, n int) {
	panic("mat: vsigmoidAVX without assembly support")
}

func vtanhAVX(x *float32, n int) {
	panic("mat: vtanhAVX without assembly support")
}

func mulVecF64AVX(dst, w, x *float64, rows, cols int, add bool) {
	panic("mat: mulVecF64AVX without assembly support")
}

func mulVecTAddF64AVX(dst, w, x *float64, rows, cols int) {
	panic("mat: mulVecTAddF64AVX without assembly support")
}

func addOuterF64AVX(w, a, b *float64, rows, cols int) {
	panic("mat: addOuterF64AVX without assembly support")
}

func axpyF64AVX(dst, x *float64, n int, alpha float64) {
	panic("mat: axpyF64AVX without assembly support")
}
