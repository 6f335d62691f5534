#include "textflag.h"

// The dense 8- and 4-bit chunk kernels. Each is the vector form of a Go loop
// in quant.go and writes the bit pattern that loop writes: the same IEEE
// divide, add, subtract and multiply per value, never a fused multiply-add
// and never a reciprocal. Loads and stores are unaligned; the Go callers
// have sized every slice, since nothing here is bounds-checked. m is a
// positive multiple of 16.

// func sumMaxAVX2(v, p, carry *float64, m int) uint64
//
// With carry non-nil, v[i] = p[i] + carry[i]; then, over the m values of v
// (p itself when carry is nil), the largest magnitude's bit pattern: the
// sign cleared, compared as integers, so ±Inf and every NaN rank above
// MaxFloat64 — chunkScale's one-comparison finiteness verdict. The add keeps
// p as its first operand, the NaN-propagation order of the Go loop.
TEXT ·sumMaxAVX2(SB), NOSPLIT, $0-40
	MOVQ v+0(FP), DI
	MOVQ p+8(FP), SI
	MOVQ carry+16(FP), DX
	MOVQ m+24(FP), CX

	VPCMPEQQ Y15, Y15, Y15
	VPSRLQ   $1, Y15, Y15  // 0x7FFF…: clears the sign
	VPXOR    Y0, Y0, Y0
	VPXOR    Y1, Y1, Y1
	TESTQ    DX, DX
	JZ       plain

sum:
	VMOVUPD   (SI), Y2
	VMOVUPD   32(SI), Y3
	VADDPD    (DX), Y2, Y2
	VADDPD    32(DX), Y3, Y3
	VMOVUPD   Y2, (DI)
	VMOVUPD   Y3, 32(DI)
	VANDPD    Y15, Y2, Y2
	VANDPD    Y15, Y3, Y3
	VPCMPGTQ  Y0, Y2, Y4
	VPCMPGTQ  Y1, Y3, Y5
	VPBLENDVB Y4, Y2, Y0, Y0
	VPBLENDVB Y5, Y3, Y1, Y1
	ADDQ      $64, SI
	ADDQ      $64, DX
	ADDQ      $64, DI
	SUBQ      $8, CX
	JNZ       sum
	JMP       reduce

plain:
	VANDPD    (SI), Y15, Y2
	VANDPD    32(SI), Y15, Y3
	VPCMPGTQ  Y0, Y2, Y4
	VPCMPGTQ  Y1, Y3, Y5
	VPBLENDVB Y4, Y2, Y0, Y0
	VPBLENDVB Y5, Y3, Y1, Y1
	ADDQ      $64, SI
	SUBQ      $8, CX
	JNZ       plain

reduce:
	VPCMPGTQ     Y1, Y0, Y4
	VPBLENDVB    Y4, Y0, Y1, Y0
	VEXTRACTI128 $1, Y0, X1
	VPCMPGTQ     X1, X0, X4
	VPBLENDVB    X4, X0, X1, X0
	VPSHUFD      $0x4E, X0, X1
	VPCMPGTQ     X1, X0, X4
	VPBLENDVB    X4, X0, X1, X0
	VMOVQ        X0, AX
	MOVQ         AX, ret+32(FP)
	VZEROUPPER
	RET

// QUANT4 quantizes the four values at off(SI) — quantize in quant.go, lane
// by lane: q = x/scale; t = trunc(q); f = q − t; step = (f ≥ ½) − (f ≤ −½)
// as +1, −1 or +0; c = t + step, clamped to ±mc. Adding the step, +0 when
// no step is taken, turns trunc's −0 (of a q in (−1, 0)) into +0, so code 0
// dequantizes to +0 as float64(0)·scale does. It stores deq = c·scale at
// off(R8) and v − deq at off(R9), and leaves the codes as int32 in H.
// Y10..Y15 hold −mc, mc, −½, ½, 1 and scale; Y0..Y4 are scratch.
#define QUANT4(off, H) \
	VMOVUPD    off(SI), Y0       \
	VDIVPD     Y15, Y0, Y1       \
	VROUNDPD   $3, Y1, Y2        \
	VSUBPD     Y2, Y1, Y1        \
	VCMPPD     $0x1d, Y13, Y1, Y3 \
	VCMPPD     $0x12, Y12, Y1, Y4 \
	VANDPD     Y14, Y3, Y3       \
	VANDPD     Y14, Y4, Y4       \
	VSUBPD     Y4, Y3, Y3        \
	VADDPD     Y3, Y2, Y2        \
	VMINPD     Y11, Y2, Y2       \
	VMAXPD     Y10, Y2, Y2       \
	VCVTPD2DQY Y2, H             \
	VMULPD     Y15, Y2, Y1       \
	VMOVUPD    Y1, off(R8)       \
	VSUBPD     Y1, Y0, Y0        \
	VMOVUPD    Y0, off(R9)

// func quantAVX2(codes *byte, deq, next, v *float64, m int, scale float64, bits int)
//
// packCodes and the residual fold for bits 8 or 4 at a non-zero scale:
// codes receives the m packed codes (m or m/2 bytes), deq what unpackCodes
// reconstructs from them, next v − deq. A nil deq or next is written to a
// 128-byte scratch on the stack instead, so the loop has no branch on them;
// next may be v itself.
TEXT ·quantAVX2(SB), NOSPLIT, $128-56
	MOVQ codes+0(FP), DI
	MOVQ deq+8(FP), R8
	MOVQ next+16(FP), R9
	MOVQ v+24(FP), SI
	MOVQ m+32(FP), CX
	MOVQ bits+48(FP), BX

	MOVQ  $128, R10
	MOVQ  $128, R11
	TESTQ R8, R8
	JNZ   deqset
	LEAQ  scratch-128(SP), R8
	XORQ  R10, R10

deqset:
	TESTQ R9, R9
	JNZ   nextset
	LEAQ  scratch-128(SP), R9
	XORQ  R11, R11

nextset:
	VBROADCASTSD scale+40(FP), Y15
	MOVQ         $0x3FF0000000000000, AX // 1
	VMOVQ        AX, X14
	VBROADCASTSD X14, Y14
	MOVQ         $0x3FE0000000000000, AX // ½
	VMOVQ        AX, X13
	VBROADCASTSD X13, Y13
	MOVQ         $0xBFE0000000000000, AX // −½
	VMOVQ        AX, X12
	VBROADCASTSD X12, Y12
	MOVQ         $0x405FC00000000000, AX // 127
	MOVQ         $0x401C000000000000, DX // 7
	CMPQ         BX, $8
	CMOVQNE      DX, AX
	VMOVQ        AX, X11
	VBROADCASTSD X11, Y11
	VPCMPEQQ     Y10, Y10, Y10
	VPSLLQ       $63, Y10, Y10           // the sign bit
	VXORPD       Y11, Y10, Y10           // −mc
	MOVL         $0x000F000F, AX
	VMOVD        AX, X9
	VPBROADCASTD X9, X9                  // 0x000F per word
	VPSLLW       $4, X9, X8              // 0x00F0 per word

loop:
	QUANT4(0, X5)
	QUANT4(32, X6)
	VPACKSSDW X6, X5, X5
	QUANT4(64, X6)
	QUANT4(96, X7)
	VPACKSSDW X7, X6, X6
	VPACKSSWB X6, X5, X5 // the 16 codes as int8, in order
	CMPQ      BX, $8
	JNE       nibbles
	VMOVDQU   X5, (DI)
	ADDQ      $16, DI
	JMP       next

nibbles:
	// Word j holds codes 2j (low byte) and 2j+1: keep the first's low
	// nibble and move the second's into bits 4..7, then narrow to bytes.
	VPAND     X9, X5, X6
	VPSRLW    $4, X5, X5
	VPAND     X8, X5, X5
	VPOR      X6, X5, X5
	VPACKUSWB X5, X5, X5
	VMOVQ     X5, (DI)
	ADDQ      $8, DI

next:
	ADDQ $128, SI
	ADDQ R10, R8
	ADDQ R11, R9
	SUBQ $16, CX
	JNZ  loop
	VZEROUPPER
	RET

// APPLY4 adds the four int32 codes in X to dst at off(DI) from base at
// off(R8): x = c·scale, sum = base + x with base the first operand — the
// push handler's ApplyDelta loop — and stores the sums if every |sum| ≤
// limit (an ordered compare: NaN fails it); otherwise it leaves with the
// failing lane's index. DX is the index of the group's first value.
#define APPLY4(X, off) \
	VCVTDQ2PD X, Y2          \
	VMULPD    Y15, Y2, Y2    \
	VMOVUPD   off(R8), Y3    \
	VADDPD    Y2, Y3, Y3     \
	VANDPD    Y14, Y3, Y4    \
	VCMPPD    $0x12, Y13, Y4, Y4 \
	VMOVMSKPD Y4, AX         \
	CMPL      AX, $15        \
	JNE       fail           \
	VMOVUPD   Y3, off(DI)    \
	ADDQ      $4, DX

// func applyAVX2(dst, base *float64, codes *byte, m int, scale, limit float64, bits int) int
//
// StreamDecoder.ApplyDelta's dense block for bits 8 or 4 at a non-zero
// scale: dst[i] = base[i] + code[i]·scale for the m codes, checking each sum
// against limit. It returns m, or the index of the first sum beyond limit,
// after which nothing of its group of four is written. dst may be base.
TEXT ·applyAVX2(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ base+8(FP), R8
	MOVQ codes+16(FP), SI
	MOVQ m+24(FP), CX
	MOVQ bits+48(FP), BX
	XORQ DX, DX

	VBROADCASTSD scale+32(FP), Y15
	VBROADCASTSD limit+40(FP), Y13
	VPCMPEQQ     Y14, Y14, Y14
	VPSRLQ       $1, Y14, Y14      // clears the sign
	MOVL         $0x0F0F0F0F, AX
	VMOVD        AX, X12
	VPBROADCASTD X12, X12          // 0x0F per byte
	MOVL         $0x08080808, AX
	VMOVD        AX, X11
	VPBROADCASTD X11, X11          // 0x08 per byte

loop:
	CMPQ      BX, $8
	JNE       nibbles
	VPMOVSXBD (SI), Y0
	VPMOVSXBD 8(SI), Y1
	ADDQ      $16, SI
	JMP       add

nibbles:
	// Byte j holds codes 2j (low nibble) and 2j+1: interleave the nibbles
	// into one byte each and sign-extend them, (u ⊕ 8) − 8.
	VMOVQ      (SI), X0
	VPSRLW     $4, X0, X1
	VPAND      X12, X0, X0
	VPAND      X12, X1, X1
	VPUNPCKLBW X1, X0, X0
	VPXOR      X11, X0, X0
	VPSUBB     X11, X0, X0
	VPSRLDQ    $8, X0, X1
	VPMOVSXBD  X0, Y0
	VPMOVSXBD  X1, Y1
	ADDQ       $8, SI

add:
	VEXTRACTI128 $1, Y0, X5
	VEXTRACTI128 $1, Y1, X6
	APPLY4(X0, 0)
	APPLY4(X5, 32)
	APPLY4(X1, 64)
	APPLY4(X6, 96)
	ADDQ $128, DI
	ADDQ $128, R8
	SUBQ $16, CX
	JNZ  loop
	MOVQ DX, ret+56(FP)
	VZEROUPPER
	RET

fail:
	NOTL AX
	ANDL $15, AX
	BSFL AX, AX
	ADDQ AX, DX
	MOVQ DX, ret+56(FP)
	VZEROUPPER
	RET
