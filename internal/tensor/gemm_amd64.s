#include "textflag.h"

// func gemm4x8AVX2(c *float64, ldc int, a *float64, aRow, aP int, b *float64, ldb, k int, acc bool)
//
// S[r][0..8) = Σ_{p<k} A[r·aRow + p·aP] · B[p·ldb + 0..8) for r = 0..3, then
// C[r·ldc + 0..8) = S[r], or with acc C[r·ldc + 0..8) += S[r].
//
// Eight YMM accumulators hold the 4×8 tile; lanes are output columns. Every
// element is acc = round(acc + round(a·b)) for p = 0, 1, 2, … from +0: a
// separate VMULPD and VADDPD, never a fused multiply-add, so the result is the
// bit pattern of the scalar Go loop (see gemmTileGo). Loads are unaligned; the
// caller has checked every extent, since nothing here is bounds-checked. The
// accumulate mode adds each finished sum to C with one more VADDPD, the
// rounding a scalar `c += s` makes.
TEXT ·gemm4x8AVX2(SB), NOSPLIT, $0-65
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ aRow+24(FP), R9
	MOVQ aP+32(FP), R10
	MOVQ b+40(FP), DX
	MOVQ ldb+48(FP), R11
	MOVQ k+56(FP), CX

	// Element strides to byte strides.
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	SHLQ $3, R11

	// SI, AX, BX, R12 walk the four A rows.
	LEAQ (SI)(R9*1), AX
	LEAQ (SI)(R9*2), BX
	LEAQ (AX)(R9*2), R12

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	TESTQ CX, CX
	JLE   store

loop:
	VMOVUPD (DX), Y8
	VMOVUPD 32(DX), Y9

	VBROADCASTSD (SI), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y9, Y10, Y11
	VADDPD       Y11, Y1, Y1

	VBROADCASTSD (AX), Y12
	VMULPD       Y8, Y12, Y13
	VADDPD       Y13, Y2, Y2
	VMULPD       Y9, Y12, Y13
	VADDPD       Y13, Y3, Y3

	VBROADCASTSD (BX), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y4, Y4
	VMULPD       Y9, Y10, Y11
	VADDPD       Y11, Y5, Y5

	VBROADCASTSD (R12), Y12
	VMULPD       Y8, Y12, Y13
	VADDPD       Y13, Y6, Y6
	VMULPD       Y9, Y12, Y13
	VADDPD       Y13, Y7, Y7

	ADDQ R10, SI
	ADDQ R10, AX
	ADDQ R10, BX
	ADDQ R10, R12
	ADDQ R11, DX
	DECQ CX
	JNZ  loop

store:
	CMPB acc+64(FP), $0
	JEQ  put
	LEAQ (DI)(R8*1), AX
	LEAQ (DI)(R8*2), BX
	LEAQ (AX)(R8*2), R12
	VADDPD (DI), Y0, Y0
	VADDPD 32(DI), Y1, Y1
	VADDPD (AX), Y2, Y2
	VADDPD 32(AX), Y3, Y3
	VADDPD (BX), Y4, Y4
	VADDPD 32(BX), Y5, Y5
	VADDPD (R12), Y6, Y6
	VADDPD 32(R12), Y7, Y7

put:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    R8, DI
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, 32(DI)
	ADDQ    R8, DI
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	ADDQ    R8, DI
	VMOVUPD Y6, (DI)
	VMOVUPD Y7, 32(DI)
	VZEROUPPER
	RET

