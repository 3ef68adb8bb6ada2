#include "textflag.h"

// func HasAVX() bool
TEXT ·HasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	// ECX bit 27 = OSXSAVE, bit 28 = AVX.
	MOVL CX, BX
	ANDL $(1<<27 | 1<<28), BX
	CMPL BX, $(1<<27 | 1<<28)
	JNE  noavx
	// XCR0 bits 1|2: OS saves XMM and YMM state.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
	RET
noavx:
	MOVB $0, ret+0(FP)
	RET
