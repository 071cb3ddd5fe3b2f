#include "textflag.h"

// func axpy4AVX(di, b *float32, stride, n int, a *float32)
//
// di[j] += a[0]*b0[j] + a[1]*b1[j] + a[2]*b2[j] + a[3]*b3[j]
// for j in [0, n&^7), b row i starting at b + i*stride floats.
// The caller handles the scalar tail.
TEXT ·axpy4AVX(SB), NOSPLIT, $0-40
	MOVQ di+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ stride+16(FP), CX
	SHLQ $2, CX                   // stride in bytes
	MOVQ n+24(FP), BX
	MOVQ a+32(FP), AX
	VBROADCASTSS 0(AX), Y0
	VBROADCASTSS 4(AX), Y1
	VBROADCASTSS 8(AX), Y2
	VBROADCASTSS 12(AX), Y3
	LEAQ (SI)(CX*1), R9           // b1
	LEAQ (SI)(CX*2), R10          // b2
	LEAQ (R9)(CX*2), R11          // b3
	ANDQ $-8, BX                  // vector span: n &^ 7
	JE   a4done
	XORQ DX, DX                   // j
	MOVQ BX, R8
	ANDQ $-16, R8                 // 2x-unrolled span: n &^ 15
	JE   a4x8

a4x16:
	VMOVUPS (DI)(DX*4), Y4
	VMOVUPS 32(DI)(DX*4), Y5
	VFMADD231PS (SI)(DX*4), Y0, Y4
	VFMADD231PS 32(SI)(DX*4), Y0, Y5
	VFMADD231PS (R9)(DX*4), Y1, Y4
	VFMADD231PS 32(R9)(DX*4), Y1, Y5
	VFMADD231PS (R10)(DX*4), Y2, Y4
	VFMADD231PS 32(R10)(DX*4), Y2, Y5
	VFMADD231PS (R11)(DX*4), Y3, Y4
	VFMADD231PS 32(R11)(DX*4), Y3, Y5
	VMOVUPS Y4, (DI)(DX*4)
	VMOVUPS Y5, 32(DI)(DX*4)
	ADDQ $16, DX
	CMPQ DX, R8
	JLT  a4x16

a4x8:
	CMPQ DX, BX
	JGE  a4done
	VMOVUPS (DI)(DX*4), Y4
	VFMADD231PS (SI)(DX*4), Y0, Y4
	VFMADD231PS (R9)(DX*4), Y1, Y4
	VFMADD231PS (R10)(DX*4), Y2, Y4
	VFMADD231PS (R11)(DX*4), Y3, Y4
	VMOVUPS Y4, (DI)(DX*4)
	ADDQ $8, DX
	JMP  a4x8

a4done:
	VZEROUPPER
	RET

// func axpy1AVX(di, b *float32, n int, a float32)
//
// di[j] += a*b[j] for j in [0, n&^7). The caller handles the scalar tail.
TEXT ·axpy1AVX(SB), NOSPLIT, $0-28
	MOVQ di+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ n+16(FP), BX
	VBROADCASTSS a+24(FP), Y0
	ANDQ $-8, BX
	JE   a1done
	XORQ DX, DX

a1loop:
	VMOVUPS (DI)(DX*4), Y4
	VFMADD231PS (SI)(DX*4), Y0, Y4
	VMOVUPS Y4, (DI)(DX*4)
	ADDQ $8, DX
	CMPQ DX, BX
	JLT  a1loop

a1done:
	VZEROUPPER
	RET

// func dotQ8AVX(w, x *int8, n int) int32
//
// Returns sum(int32(w[j])*int32(x[j])) for j in [0, n&^15). Codes are
// sign-extended to int16 and multiply-accumulated pairwise into int32 lanes
// (VPMADDWD); |codes| <= 127 keeps every intermediate far from overflow.
// Integer addition is associative, so the result is bit-identical to the
// scalar loop. The caller handles the tail.
TEXT ·dotQ8AVX(SB), NOSPLIT, $0-28
	MOVQ w+0(FP), SI
	MOVQ x+8(FP), DI
	MOVQ n+16(FP), BX
	VPXOR Y0, Y0, Y0
	ANDQ $-16, BX
	JE   q8sum
	XORQ DX, DX

q8loop:
	VPMOVSXBW (SI)(DX*1), Y1
	VPMOVSXBW (DI)(DX*1), Y2
	VPMADDWD Y2, Y1, Y3
	VPADDD Y3, Y0, Y0
	ADDQ $16, DX
	CMPQ DX, BX
	JLT  q8loop

q8sum:
	VEXTRACTI128 $1, Y0, X1
	VPADDD X1, X0, X0
	VPSHUFD $0x4E, X0, X1
	VPADDD X1, X0, X0
	VPSHUFD $0xB1, X0, X1
	VPADDD X1, X0, X0
	VMOVD X0, AX
	MOVL AX, ret+24(FP)
	VZEROUPPER
	RET

// Vectorized activation kernels. Both share an exp core: with x clamped to
// [-87, 88], t = x*log2(e) splits into n = round(t) and r = t-n, so
// e^x = 2^n * e^(r*ln2) with r*ln2 in [-0.347, 0.347]; a degree-6 Taylor
// polynomial (Horner, FMA) covers that range to ~2e-7 relative error, and
// the 2^n scale is an integer add into the float exponent bits. Accuracy is
// bounded by the relative-error tests in simd_test.go.

DATA sigConst<>+0(SB)/4, $0x3FB8AA3B  // log2(e)
DATA sigConst<>+4(SB)/4, $0x3F317218  // ln(2)
DATA sigConst<>+8(SB)/4, $0xC2AE0000  // clamp lo: -87
DATA sigConst<>+12(SB)/4, $0x42B00000 // clamp hi: +88
GLOBL sigConst<>(SB), RODATA, $16

DATA c6x8<>+0(SB)/4, $0x3AB60B61 // 1/720
DATA c6x8<>+4(SB)/4, $0x3AB60B61
DATA c6x8<>+8(SB)/4, $0x3AB60B61
DATA c6x8<>+12(SB)/4, $0x3AB60B61
DATA c6x8<>+16(SB)/4, $0x3AB60B61
DATA c6x8<>+20(SB)/4, $0x3AB60B61
DATA c6x8<>+24(SB)/4, $0x3AB60B61
DATA c6x8<>+28(SB)/4, $0x3AB60B61
GLOBL c6x8<>(SB), RODATA, $32

DATA c5x8<>+0(SB)/4, $0x3C088889 // 1/120
DATA c5x8<>+4(SB)/4, $0x3C088889
DATA c5x8<>+8(SB)/4, $0x3C088889
DATA c5x8<>+12(SB)/4, $0x3C088889
DATA c5x8<>+16(SB)/4, $0x3C088889
DATA c5x8<>+20(SB)/4, $0x3C088889
DATA c5x8<>+24(SB)/4, $0x3C088889
DATA c5x8<>+28(SB)/4, $0x3C088889
GLOBL c5x8<>(SB), RODATA, $32

DATA c4x8<>+0(SB)/4, $0x3D2AAAAB // 1/24
DATA c4x8<>+4(SB)/4, $0x3D2AAAAB
DATA c4x8<>+8(SB)/4, $0x3D2AAAAB
DATA c4x8<>+12(SB)/4, $0x3D2AAAAB
DATA c4x8<>+16(SB)/4, $0x3D2AAAAB
DATA c4x8<>+20(SB)/4, $0x3D2AAAAB
DATA c4x8<>+24(SB)/4, $0x3D2AAAAB
DATA c4x8<>+28(SB)/4, $0x3D2AAAAB
GLOBL c4x8<>(SB), RODATA, $32

DATA c3x8<>+0(SB)/4, $0x3E2AAAAB // 1/6
DATA c3x8<>+4(SB)/4, $0x3E2AAAAB
DATA c3x8<>+8(SB)/4, $0x3E2AAAAB
DATA c3x8<>+12(SB)/4, $0x3E2AAAAB
DATA c3x8<>+16(SB)/4, $0x3E2AAAAB
DATA c3x8<>+20(SB)/4, $0x3E2AAAAB
DATA c3x8<>+24(SB)/4, $0x3E2AAAAB
DATA c3x8<>+28(SB)/4, $0x3E2AAAAB
GLOBL c3x8<>(SB), RODATA, $32

DATA c2x8<>+0(SB)/4, $0x3F000000 // 1/2
DATA c2x8<>+4(SB)/4, $0x3F000000
DATA c2x8<>+8(SB)/4, $0x3F000000
DATA c2x8<>+12(SB)/4, $0x3F000000
DATA c2x8<>+16(SB)/4, $0x3F000000
DATA c2x8<>+20(SB)/4, $0x3F000000
DATA c2x8<>+24(SB)/4, $0x3F000000
DATA c2x8<>+28(SB)/4, $0x3F000000
GLOBL c2x8<>(SB), RODATA, $32

DATA onex8<>+0(SB)/4, $0x3F800000 // 1.0
DATA onex8<>+4(SB)/4, $0x3F800000
DATA onex8<>+8(SB)/4, $0x3F800000
DATA onex8<>+12(SB)/4, $0x3F800000
DATA onex8<>+16(SB)/4, $0x3F800000
DATA onex8<>+20(SB)/4, $0x3F800000
DATA onex8<>+24(SB)/4, $0x3F800000
DATA onex8<>+28(SB)/4, $0x3F800000
GLOBL onex8<>(SB), RODATA, $32

DATA twox8<>+0(SB)/4, $0x40000000 // 2.0
DATA twox8<>+4(SB)/4, $0x40000000
DATA twox8<>+8(SB)/4, $0x40000000
DATA twox8<>+12(SB)/4, $0x40000000
DATA twox8<>+16(SB)/4, $0x40000000
DATA twox8<>+20(SB)/4, $0x40000000
DATA twox8<>+24(SB)/4, $0x40000000
DATA twox8<>+28(SB)/4, $0x40000000
GLOBL twox8<>(SB), RODATA, $32

// exp core: Y1 = e^Y1, expects Y8=log2e, Y9=ln2, Y10=lo, Y11=hi broadcast;
// clobbers Y2-Y4.
#define EXP8 \
	VMAXPS Y10, Y1, Y1 \
	VMINPS Y11, Y1, Y1 \
	VMULPS Y8, Y1, Y2 \
	VROUNDPS $0, Y2, Y3 \
	VSUBPS Y3, Y2, Y2 \
	VMULPS Y9, Y2, Y2 \
	VMOVUPS c6x8<>(SB), Y4 \
	VFMADD213PS c5x8<>(SB), Y2, Y4 \
	VFMADD213PS c4x8<>(SB), Y2, Y4 \
	VFMADD213PS c3x8<>(SB), Y2, Y4 \
	VFMADD213PS c2x8<>(SB), Y2, Y4 \
	VFMADD213PS onex8<>(SB), Y2, Y4 \
	VFMADD213PS onex8<>(SB), Y2, Y4 \
	VCVTPS2DQ Y3, Y3 \
	VPSLLD $23, Y3, Y3 \
	VPADDD Y3, Y4, Y1

#define LOADEXPCONST \
	VBROADCASTSS sigConst<>+0(SB), Y8 \
	VBROADCASTSS sigConst<>+4(SB), Y9 \
	VBROADCASTSS sigConst<>+8(SB), Y10 \
	VBROADCASTSS sigConst<>+12(SB), Y11

// func vsigmoidAVX(x *float32, n int)
// x[j] = 1/(1+e^(-x[j])) for j in [0, n&^7). The caller handles the tail.
TEXT ·vsigmoidAVX(SB), NOSPLIT, $0-16
	MOVQ x+0(FP), DI
	MOVQ n+8(FP), BX
	ANDQ $-8, BX
	JE   sgdone
	LOADEXPCONST
	XORQ DX, DX

sgloop:
	VMOVUPS (DI)(DX*4), Y1
	VXORPS Y5, Y5, Y5
	VSUBPS Y1, Y5, Y1          // -x
	EXP8                       // e^(-x)
	VADDPS onex8<>(SB), Y1, Y1 // 1 + e^(-x)
	VMOVUPS onex8<>(SB), Y5
	VDIVPS Y1, Y5, Y1          // 1 / (1 + e^(-x))
	VMOVUPS Y1, (DI)(DX*4)
	ADDQ $8, DX
	CMPQ DX, BX
	JLT  sgloop

sgdone:
	VZEROUPPER
	RET

// func vtanhAVX(x *float32, n int)
// x[j] = tanh(x[j]) = 1 - 2/(e^(2x[j])+1) for j in [0, n&^7).
TEXT ·vtanhAVX(SB), NOSPLIT, $0-16
	MOVQ x+0(FP), DI
	MOVQ n+8(FP), BX
	ANDQ $-8, BX
	JE   thdone
	LOADEXPCONST
	XORQ DX, DX

thloop:
	VMOVUPS (DI)(DX*4), Y1
	VADDPS Y1, Y1, Y1          // 2x
	EXP8                       // e^(2x)
	VADDPS onex8<>(SB), Y1, Y1 // e^(2x) + 1
	VMOVUPS twox8<>(SB), Y5
	VDIVPS Y1, Y5, Y1          // 2 / (e^(2x)+1)
	VMOVUPS onex8<>(SB), Y5
	VSUBPS Y1, Y5, Y1          // 1 - 2/(e^(2x)+1)
	VMOVUPS Y1, (DI)(DX*4)
	ADDQ $8, DX
	CMPQ DX, BX
	JLT  thloop

thdone:
	VZEROUPPER
	RET

// Int8 quantization + multi-row dot kernels. All arithmetic mirrors the
// portable loops operation-for-operation (same single-rounding float32
// multiply, same add-half-then-truncate rounding, exact integer sums), so
// these paths stay bit-identical to scalar — pinned by simd_test.go.

DATA qConst<>+0(SB)/4, $0x80000000  // sign mask
DATA qConst<>+4(SB)/4, $0x3F000000  // 0.5
DATA qConst<>+8(SB)/4, $0x42FE0000  // +127
DATA qConst<>+12(SB)/4, $0xC2FE0000 // -127
DATA qConst<>+16(SB)/4, $0x7FFFFFFF // abs mask
GLOBL qConst<>(SB), RODATA, $20

// func maxAbs8AVX(x *float32, n int) float32
// Returns max |x[j]| over j in [0, n&^7); 0 when the span is empty.
TEXT ·maxAbs8AVX(SB), NOSPLIT, $0-20
	MOVQ x+0(FP), SI
	MOVQ n+8(FP), BX
	VBROADCASTSS qConst<>+16(SB), Y9
	VXORPS Y1, Y1, Y1
	ANDQ $-8, BX
	JE   madone
	XORQ DX, DX

maloop:
	VMOVUPS (SI)(DX*4), Y2
	VANDPS Y9, Y2, Y2
	VMAXPS Y2, Y1, Y1
	ADDQ $8, DX
	CMPQ DX, BX
	JLT  maloop

madone:
	VEXTRACTF128 $1, Y1, X2
	VMAXPS X2, X1, X1
	VPSHUFD $0x4E, X1, X2
	VMAXPS X2, X1, X1
	VPSHUFD $0xB1, X1, X2
	VMAXPS X2, X1, X1
	VMOVSS X1, ret+16(FP)
	VZEROUPPER
	RET

// func quantVec8AVX(dst *int8, x *float32, n int, inv float32)
// dst[j] = int8(trunc(clamp(x[j]*inv ± 0.5, ±127))) for j in [0, n&^7) —
// the same round-half-away-from-zero the scalar QuantizeVec8 loop computes.
TEXT ·quantVec8AVX(SB), NOSPLIT, $0-28
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), BX
	VBROADCASTSS inv+24(FP), Y8
	VBROADCASTSS qConst<>+0(SB), Y9
	VBROADCASTSS qConst<>+4(SB), Y10
	VBROADCASTSS qConst<>+8(SB), Y11
	VBROADCASTSS qConst<>+12(SB), Y12
	ANDQ $-8, BX
	JE   qvdone
	XORQ DX, DX

qvloop:
	VMOVUPS (SI)(DX*4), Y1
	VMULPS Y8, Y1, Y1
	VANDPS Y9, Y1, Y2  // sign of r
	VORPS Y10, Y2, Y2  // ±0.5 matching r's sign
	VADDPS Y2, Y1, Y1
	VMINPS Y11, Y1, Y1
	VMAXPS Y12, Y1, Y1
	VCVTTPS2DQ Y1, Y1
	VEXTRACTI128 $1, Y1, X2
	VPACKSSDW X2, X1, X1
	VPACKSSWB X1, X1, X1
	MOVQ X1, (DI)(DX*1)
	ADDQ $8, DX
	CMPQ DX, BX
	JLT  qvloop

qvdone:
	VZEROUPPER
	RET

// func dotQ8x4AVX(w *int8, stride int, x *int8, n int, out *int32)
// out[i] = Σ w_i[j]·x[j] over j in [0, n&^15) for the four rows starting at
// w, w+stride, w+2·stride, w+3·stride. One x load feeds all four rows.
TEXT ·dotQ8x4AVX(SB), NOSPLIT, $0-40
	MOVQ w+0(FP), SI
	MOVQ stride+8(FP), R8
	MOVQ x+16(FP), DI
	MOVQ n+24(FP), BX
	MOVQ out+32(FP), R12
	LEAQ (SI)(R8*1), R9
	LEAQ (SI)(R8*2), R10
	LEAQ (R9)(R8*2), R11
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	ANDQ $-16, BX
	JE   d4done
	XORQ DX, DX
	MOVQ BX, CX
	ANDQ $-32, CX
	JE   d4loop16

d4loop32:
	VPMOVSXBW (DI)(DX*1), Y0
	VPMOVSXBW 16(DI)(DX*1), Y7
	VPMOVSXBW (SI)(DX*1), Y5
	VPMOVSXBW 16(SI)(DX*1), Y6
	VPMADDWD Y0, Y5, Y5
	VPMADDWD Y7, Y6, Y6
	VPADDD Y5, Y1, Y1
	VPADDD Y6, Y1, Y1
	VPMOVSXBW (R9)(DX*1), Y5
	VPMOVSXBW 16(R9)(DX*1), Y6
	VPMADDWD Y0, Y5, Y5
	VPMADDWD Y7, Y6, Y6
	VPADDD Y5, Y2, Y2
	VPADDD Y6, Y2, Y2
	VPMOVSXBW (R10)(DX*1), Y5
	VPMOVSXBW 16(R10)(DX*1), Y6
	VPMADDWD Y0, Y5, Y5
	VPMADDWD Y7, Y6, Y6
	VPADDD Y5, Y3, Y3
	VPADDD Y6, Y3, Y3
	VPMOVSXBW (R11)(DX*1), Y5
	VPMOVSXBW 16(R11)(DX*1), Y6
	VPMADDWD Y0, Y5, Y5
	VPMADDWD Y7, Y6, Y6
	VPADDD Y5, Y4, Y4
	VPADDD Y6, Y4, Y4
	ADDQ $32, DX
	CMPQ DX, CX
	JLT  d4loop32
	CMPQ DX, BX
	JGE  d4done

d4loop16:
	VPMOVSXBW (DI)(DX*1), Y0
	VPMOVSXBW (SI)(DX*1), Y5
	VPMADDWD Y0, Y5, Y5
	VPADDD Y5, Y1, Y1
	VPMOVSXBW (R9)(DX*1), Y5
	VPMADDWD Y0, Y5, Y5
	VPADDD Y5, Y2, Y2
	VPMOVSXBW (R10)(DX*1), Y5
	VPMADDWD Y0, Y5, Y5
	VPADDD Y5, Y3, Y3
	VPMOVSXBW (R11)(DX*1), Y5
	VPMADDWD Y0, Y5, Y5
	VPADDD Y5, Y4, Y4
	ADDQ $16, DX
	CMPQ DX, BX
	JLT  d4loop16

d4done:
	VEXTRACTI128 $1, Y1, X5
	VPADDD X5, X1, X1
	VPSHUFD $0x4E, X1, X5
	VPADDD X5, X1, X1
	VPSHUFD $0xB1, X1, X5
	VPADDD X5, X1, X1
	VMOVD X1, AX
	MOVL AX, (R12)
	VEXTRACTI128 $1, Y2, X5
	VPADDD X5, X2, X2
	VPSHUFD $0x4E, X2, X5
	VPADDD X5, X2, X2
	VPSHUFD $0xB1, X2, X5
	VPADDD X5, X2, X2
	VMOVD X2, AX
	MOVL AX, 4(R12)
	VEXTRACTI128 $1, Y3, X5
	VPADDD X5, X3, X3
	VPSHUFD $0x4E, X3, X5
	VPADDD X5, X3, X3
	VPSHUFD $0xB1, X3, X5
	VPADDD X5, X3, X3
	VMOVD X3, AX
	MOVL AX, 8(R12)
	VEXTRACTI128 $1, Y4, X5
	VPADDD X5, X4, X4
	VPSHUFD $0x4E, X4, X5
	VPADDD X5, X4, X4
	VPSHUFD $0xB1, X4, X5
	VPADDD X5, X4, X4
	VMOVD X4, AX
	MOVL AX, 12(R12)
	VZEROUPPER
	RET

// Float64 kernels for the training engine (mat.go). Every output element
// sees exactly the portable loop's chain of `s = s + w·x` in the same order:
// products and sums are separate VMULPD/VADDPD (two roundings, like scalar
// MULSD+ADDSD) — a fused multiply-add rounds once and would change weights —
// and lanes run across output elements, never along a reduction.

// One 4-row × 4-column block of mulVecF64AVX: load four rows at base,
// transpose so each register holds one column across the four rows, then
// acc += col_j · x[j] for j = 0..3 in order. Y12-Y15 hold x[j..j+3]
// broadcast; CX is the row stride in bytes, R9 three strides.
#define MV_BLOCK(base, acc) \
	VMOVUPD (base), Y4 \
	VMOVUPD (base)(CX*1), Y5 \
	VMOVUPD (base)(CX*2), Y6 \
	VMOVUPD (base)(R9*1), Y7 \
	VUNPCKLPD Y5, Y4, Y8 \
	VUNPCKHPD Y5, Y4, Y9 \
	VUNPCKLPD Y7, Y6, Y10 \
	VUNPCKHPD Y7, Y6, Y11 \
	VPERM2F128 $0x20, Y10, Y8, Y4 \
	VPERM2F128 $0x20, Y11, Y9, Y5 \
	VPERM2F128 $0x31, Y10, Y8, Y6 \
	VPERM2F128 $0x31, Y11, Y9, Y7 \
	VMULPD Y12, Y4, Y4 \
	VADDPD Y4, acc, acc \
	VMULPD Y13, Y5, Y5 \
	VADDPD Y5, acc, acc \
	VMULPD Y14, Y6, Y6 \
	VADDPD Y6, acc, acc \
	VMULPD Y15, Y7, Y7 \
	VADDPD Y7, acc, acc

// One leftover column (cols not a multiple of 4) of the same four rows:
// gather the column element by element, acc += col · x[j] (Y12).
#define MV_COL(base, acc) \
	VMOVSD (base), X4 \
	VMOVHPD (base)(CX*1), X4, X4 \
	VMOVSD (base)(CX*2), X5 \
	VMOVHPD (base)(R9*1), X5, X5 \
	VINSERTF128 $1, X5, Y4, Y4 \
	VMULPD Y12, Y4, Y4 \
	VADDPD Y4, acc, acc

// func mulVecF64AVX(dst, w, x *float64, rows, cols int, add bool)
//
// dst[i] = Σ_j w[i][j]·x[j] (dst[i] += … when add) for i in [0, rows&^3),
// each sum started at +0 and taken in increasing j. Sixteen rows (four
// independent accumulators) advance together so the add latency of one
// row block hides behind the other three; a last 4-row block runs alone.
TEXT ·mulVecF64AVX(SB), NOSPLIT, $0-41
	MOVQ dst+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ x+16(FP), R8
	MOVQ rows+24(FP), BX
	MOVQ cols+32(FP), CX
	MOVBLZX add+40(FP), R12
	SHLQ $3, CX                   // row stride in bytes
	LEAQ (CX)(CX*2), R9           // three rows
	SUBQ SI, R8                   // x[j] sits at (SI)(R8*1) while SI walks row 0

mv16:
	CMPQ BX, $16
	JLT  mv4
	LEAQ (SI)(CX*4), R10          // rows 4-7
	LEAQ (R10)(CX*4), AX          // rows 8-11
	LEAQ (AX)(CX*4), DX           // rows 12-15
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ cols+32(FP), R13
	SUBQ $4, R13
	JLT  mv16rest

mv16cols:
	VBROADCASTSD (SI)(R8*1), Y12
	VBROADCASTSD 8(SI)(R8*1), Y13
	VBROADCASTSD 16(SI)(R8*1), Y14
	VBROADCASTSD 24(SI)(R8*1), Y15
	MV_BLOCK(SI, Y0)
	MV_BLOCK(R10, Y1)
	MV_BLOCK(AX, Y2)
	MV_BLOCK(DX, Y3)
	ADDQ $32, SI
	ADDQ $32, R10
	ADDQ $32, AX
	ADDQ $32, DX
	SUBQ $4, R13
	JGE  mv16cols

mv16rest:
	ADDQ $4, R13                  // 0-3 columns left
	JEQ  mv16out

mv16col:
	VBROADCASTSD (SI)(R8*1), Y12
	MV_COL(SI, Y0)
	MV_COL(R10, Y1)
	MV_COL(AX, Y2)
	MV_COL(DX, Y3)
	ADDQ $8, SI
	ADDQ $8, R10
	ADDQ $8, AX
	ADDQ $8, DX
	DECQ R13
	JNE  mv16col

mv16out:
	TESTQ R12, R12
	JEQ  mv16put
	VADDPD (DI), Y0, Y0
	VADDPD 32(DI), Y1, Y1
	VADDPD 64(DI), Y2, Y2
	VADDPD 96(DI), Y3, Y3

mv16put:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	LEAQ (DX)(R9*1), SI           // DX ended one row past row 12: +3 = row 16
	MOVQ CX, R10
	SHLQ $4, R10
	SUBQ R10, R8                  // keep (SI)(R8*1) == &x[0]
	SUBQ $16, BX
	JMP  mv16

mv4:
	CMPQ BX, $4
	JLT  mvdone
	VXORPD Y0, Y0, Y0
	MOVQ cols+32(FP), R13
	SUBQ $4, R13
	JLT  mv4rest

mv4cols:
	VBROADCASTSD (SI)(R8*1), Y12
	VBROADCASTSD 8(SI)(R8*1), Y13
	VBROADCASTSD 16(SI)(R8*1), Y14
	VBROADCASTSD 24(SI)(R8*1), Y15
	MV_BLOCK(SI, Y0)
	ADDQ $32, SI
	SUBQ $4, R13
	JGE  mv4cols

mv4rest:
	ADDQ $4, R13
	JEQ  mv4out

mv4col:
	VBROADCASTSD (SI)(R8*1), Y12
	MV_COL(SI, Y0)
	ADDQ $8, SI
	DECQ R13
	JNE  mv4col

mv4out:
	TESTQ R12, R12
	JEQ  mv4put
	VADDPD (DI), Y0, Y0

mv4put:
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ R9, SI                   // SI ended one row past row 0: +3 = row 4
	MOVQ CX, R10
	SHLQ $2, R10
	SUBQ R10, R8
	SUBQ $4, BX
	JMP  mv4

mvdone:
	VZEROUPPER
	RET

// One row's update of a strip of mulVecTAddF64AVX: acc_k += w[i][4k..4k+3]·x[i]
// for four accumulators, AX at the strip's first column of row i, Y15 = x[i].
#define VT_ROW4(off, a0, a1, a2, a3) \
	VMULPD off+0(AX), Y15, Y8 \
	VMULPD off+32(AX), Y15, Y9 \
	VMULPD off+64(AX), Y15, Y10 \
	VMULPD off+96(AX), Y15, Y11 \
	VADDPD Y8, a0, a0 \
	VADDPD Y9, a1, a1 \
	VADDPD Y10, a2, a2 \
	VADDPD Y11, a3, a3

// func mulVecTAddF64AVX(dst, w, x *float64, rows, cols int)
//
// dst[j] += Σ_i w[i][j]·x[i] for j in [0, cols&^3), in increasing i, a row
// whose x[i] is ±0 skipped outright (never multiplied: Inf·0 and a flipped
// −0 must not appear). Lanes are output columns; a strip of 32 (then 16,
// then 4) columns of dst stays in registers across all rows.
TEXT ·mulVecTAddF64AVX(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ x+16(FP), R8
	MOVQ rows+24(FP), BX
	MOVQ cols+32(FP), DX
	MOVQ DX, CX
	SHLQ $3, CX                   // row stride in bytes
	ANDQ $-4, DX                  // columns left to do here

vt32:
	CMPQ DX, $32
	JLT  vt16
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7
	MOVQ SI, AX
	XORQ R9, R9

vt32row:
	MOVQ (R8)(R9*8), R10
	SHLQ $1, R10                  // drop the sign: ZF iff x[i] is ±0
	JEQ  vt32next
	VBROADCASTSD (R8)(R9*8), Y15
	VT_ROW4(0, Y0, Y1, Y2, Y3)
	VT_ROW4(128, Y4, Y5, Y6, Y7)

vt32next:
	ADDQ CX, AX
	INCQ R9
	CMPQ R9, BX
	JLT  vt32row
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ $256, DI
	ADDQ $256, SI
	SUBQ $32, DX
	JMP  vt32

vt16:
	CMPQ DX, $16
	JLT  vt4
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	MOVQ SI, AX
	XORQ R9, R9

vt16row:
	MOVQ (R8)(R9*8), R10
	SHLQ $1, R10
	JEQ  vt16next
	VBROADCASTSD (R8)(R9*8), Y15
	VT_ROW4(0, Y0, Y1, Y2, Y3)

vt16next:
	ADDQ CX, AX
	INCQ R9
	CMPQ R9, BX
	JLT  vt16row
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, SI
	SUBQ $16, DX
	JMP  vt16

vt4:
	CMPQ DX, $4
	JLT  vtdone
	VMOVUPD (DI), Y0
	MOVQ SI, AX
	XORQ R9, R9

vt4row:
	MOVQ (R8)(R9*8), R10
	SHLQ $1, R10
	JEQ  vt4next
	VBROADCASTSD (R8)(R9*8), Y15
	VMULPD (AX), Y15, Y8
	VADDPD Y8, Y0, Y0

vt4next:
	ADDQ CX, AX
	INCQ R9
	CMPQ R9, BX
	JLT  vt4row
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	SUBQ $4, DX
	JMP  vt4

vtdone:
	VZEROUPPER
	RET

// func addOuterF64AVX(w, a, b *float64, rows, cols int)
//
// w[i][j] += a[i]·b[j] for j in [0, cols&^3), rows with a[i] == ±0 skipped.
// Like mulVecTAddF64AVX it walks strips of 16 (then 4) columns down all the
// rows, so a strip of b stays in registers and a row costs only its own
// loads and stores.
TEXT ·addOuterF64AVX(SB), NOSPLIT, $0-40
	MOVQ w+0(FP), DI
	MOVQ a+8(FP), R8
	MOVQ b+16(FP), SI
	MOVQ rows+24(FP), BX
	MOVQ cols+32(FP), DX
	MOVQ DX, CX
	SHLQ $3, CX                   // row stride in bytes
	ANDQ $-4, DX                  // columns left to do here

ao16:
	CMPQ DX, $16
	JLT  ao4
	VMOVUPD (SI), Y8
	VMOVUPD 32(SI), Y9
	VMOVUPD 64(SI), Y10
	VMOVUPD 96(SI), Y11
	MOVQ DI, AX
	XORQ R9, R9

ao16row:
	MOVQ (R8)(R9*8), R10
	SHLQ $1, R10                  // drop the sign: ZF iff a[i] is ±0
	JEQ  ao16next
	VBROADCASTSD (R8)(R9*8), Y15
	VMULPD Y8, Y15, Y0
	VMULPD Y9, Y15, Y1
	VMULPD Y10, Y15, Y2
	VMULPD Y11, Y15, Y3
	VADDPD (AX), Y0, Y0
	VADDPD 32(AX), Y1, Y1
	VADDPD 64(AX), Y2, Y2
	VADDPD 96(AX), Y3, Y3
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, 64(AX)
	VMOVUPD Y3, 96(AX)

ao16next:
	ADDQ CX, AX
	INCQ R9
	CMPQ R9, BX
	JLT  ao16row
	ADDQ $128, DI
	ADDQ $128, SI
	SUBQ $16, DX
	JMP  ao16

ao4:
	CMPQ DX, $4
	JLT  aodone
	VMOVUPD (SI), Y8
	MOVQ DI, AX
	XORQ R9, R9

ao4row:
	MOVQ (R8)(R9*8), R10
	SHLQ $1, R10
	JEQ  ao4next
	VBROADCASTSD (R8)(R9*8), Y15
	VMULPD Y8, Y15, Y0
	VADDPD (AX), Y0, Y0
	VMOVUPD Y0, (AX)

ao4next:
	ADDQ CX, AX
	INCQ R9
	CMPQ R9, BX
	JLT  ao4row
	ADDQ $32, DI
	ADDQ $32, SI
	SUBQ $4, DX
	JMP  ao4

aodone:
	VZEROUPPER
	RET

// func axpyF64AVX(dst, x *float64, n int, alpha float64)
//
// dst[j] += alpha·x[j] for j in [0, n&^3). No zero skip: Axpy has none.
TEXT ·axpyF64AVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), DX
	VBROADCASTSD alpha+24(FP), Y15
	ANDQ $-4, DX
	SHLQ $3, DX                   // vector span in bytes
	MOVQ DX, R11
	ANDQ $-128, R11               // 16-element unrolled span
	XORQ AX, AX
	CMPQ AX, R11
	JGE  ax4

ax16:
	VMULPD (SI)(AX*1), Y15, Y0
	VMULPD 32(SI)(AX*1), Y15, Y1
	VMULPD 64(SI)(AX*1), Y15, Y2
	VMULPD 96(SI)(AX*1), Y15, Y3
	VADDPD (DI)(AX*1), Y0, Y0
	VADDPD 32(DI)(AX*1), Y1, Y1
	VADDPD 64(DI)(AX*1), Y2, Y2
	VADDPD 96(DI)(AX*1), Y3, Y3
	VMOVUPD Y0, (DI)(AX*1)
	VMOVUPD Y1, 32(DI)(AX*1)
	VMOVUPD Y2, 64(DI)(AX*1)
	VMOVUPD Y3, 96(DI)(AX*1)
	ADDQ $128, AX
	CMPQ AX, R11
	JLT  ax16

ax4:
	CMPQ AX, DX
	JGE  axdone
	VMULPD (SI)(AX*1), Y15, Y0
	VADDPD (DI)(AX*1), Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ $32, AX
	JMP  ax4

axdone:
	VZEROUPPER
	RET
