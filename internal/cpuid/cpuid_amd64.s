#include "textflag.h"

// func hasAVX2() bool
//
// AVX2 is usable when the CPU reports it (CPUID.7:EBX[5]) and the OS saves
// the YMM state: CPUID.1:ECX has OSXSAVE[27] and AVX[28], and XCR0[2:1] = 11b.
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JB   no

	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no

	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no

	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	TESTL $0x20, BX
	JZ    no

	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
