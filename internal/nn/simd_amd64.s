// AVX kernels for the flat training kernel and batched inference.
// Bit-identity rules:
// every lane is an independent sequential accumulator chain, every
// multiply and add is a separate correctly-rounded instruction (no
// FMA), accumulators are always the left operand of each add, and
// sums that start from zero start from a real zero register so −0
// products normalise to +0 exactly as the scalar code's `var sum
// float64; sum += ...` does. See simd.go for the reference Go
// semantics each TEXT block must reproduce.

#include "textflag.h"

// func fwdrow8AVX(x, w *float64, cols int, acc *float64)
// acc[e] = Σ_c w[c]·x[c*8+e]; x unit-major stride 8, acc 8 wide.
TEXT ·fwdrow8AVX(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), SI
	MOVQ w+8(FP), DI
	MOVQ cols+16(FP), CX
	MOVQ acc+24(FP), DX
	VXORPD Y0, Y0, Y0 // lanes 0-3
	VXORPD Y1, Y1, Y1 // lanes 4-7
	TESTQ CX, CX
	JZ   f1done
f1loop:
	VBROADCASTSD (DI), Y2
	VMULPD (SI), Y2, Y3   // w[c]·x[lanes 0-3]
	VADDPD Y3, Y0, Y0     // acc is the left add operand
	VMULPD 32(SI), Y2, Y4 // w[c]·x[lanes 4-7]
	VADDPD Y4, Y1, Y1
	ADDQ $8, DI
	ADDQ $64, SI
	DECQ CX
	JNZ  f1loop
f1done:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VZEROUPPER
	RET

// func fwd2row8AVX(x, w *float64, cols int, acc *float64)
// Two adjacent weight rows (w and w+cols) against the same chunk:
// acc[0:8] for row 0, acc[8:16] for row 1. Four accumulator chains
// keep both rows' add latencies overlapped; each chain is still
// strictly sequential in c.
TEXT ·fwd2row8AVX(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), SI
	MOVQ w+8(FP), DI
	MOVQ cols+16(FP), CX
	MOVQ acc+24(FP), DX
	MOVQ CX, R8
	SHLQ $3, R8
	ADDQ DI, R8       // second row: w + cols*8 bytes
	VXORPD Y0, Y0, Y0 // row0 lanes 0-3
	VXORPD Y1, Y1, Y1 // row0 lanes 4-7
	VXORPD Y2, Y2, Y2 // row1 lanes 0-3
	VXORPD Y3, Y3, Y3 // row1 lanes 4-7
	TESTQ CX, CX
	JZ   f2done
f2loop:
	VMOVUPD (SI), Y6
	VMOVUPD 32(SI), Y7
	VBROADCASTSD (DI), Y4
	VBROADCASTSD (R8), Y5
	VMULPD Y6, Y4, Y8
	VADDPD Y8, Y0, Y0
	VMULPD Y7, Y4, Y9
	VADDPD Y9, Y1, Y1
	VMULPD Y6, Y5, Y10
	VADDPD Y10, Y2, Y2
	VMULPD Y7, Y5, Y11
	VADDPD Y11, Y3, Y3
	ADDQ $8, DI
	ADDQ $8, R8
	ADDQ $64, SI
	DECQ CX
	JNZ  f2loop
f2done:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VZEROUPPER
	RET

// func bwdrow8AVX(d, w, dprev *float64, cols int)
// dprev[c*8+e] += d[e]·w[c], unconditional (MulVecT order).
TEXT ·bwdrow8AVX(SB), NOSPLIT, $0-32
	MOVQ d+0(FP), SI
	MOVQ w+8(FP), DI
	MOVQ dprev+16(FP), DX
	MOVQ cols+24(FP), CX
	VMOVUPD (SI), Y0   // d lanes 0-3
	VMOVUPD 32(SI), Y1 // d lanes 4-7
	TESTQ CX, CX
	JZ   b1done
b1loop:
	VBROADCASTSD (DI), Y2
	VMULPD Y2, Y0, Y3  // d·w[c], lanes 0-3
	VMOVUPD (DX), Y5
	VADDPD Y3, Y5, Y5  // dprev is the left add operand
	VMOVUPD Y5, (DX)
	VMULPD Y2, Y1, Y4
	VMOVUPD 32(DX), Y6
	VADDPD Y4, Y6, Y6
	VMOVUPD Y6, 32(DX)
	ADDQ $8, DI
	ADDQ $64, DX
	DECQ CX
	JNZ  b1loop
b1done:
	VZEROUPPER
	RET

// func axpySetAVX(dst, x *float64, n int, a float64)
// dst[i] = 0 + a·x[i]; the zero register is the left add operand so
// −0 products normalise exactly like the scalar zeroed accumulator.
TEXT ·axpySetAVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD a+24(FP), Y0
	VXORPD Y3, Y3, Y3
	MOVQ CX, BX
	SHRQ $2, BX
	JZ   astail
asloop:
	VMULPD (SI), Y0, Y1
	VADDPD Y1, Y3, Y2  // 0 + a·x
	VMOVUPD Y2, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ BX
	JNZ  asloop
astail:
	ANDQ $3, CX
	JZ   asdone
astloop:
	VMOVSD (SI), X1
	VMULSD X1, X0, X1  // a·x
	VADDSD X1, X3, X2  // 0 + a·x
	VMOVSD X2, (DI)
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  astloop
asdone:
	VZEROUPPER
	RET

// func axpyAddAVX(dst, x *float64, n int, a float64)
// dst[i] += a·x[i], dst as the left add operand.
TEXT ·axpyAddAVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD a+24(FP), Y0
	MOVQ CX, BX
	SHRQ $2, BX
	JZ   aatail
aaloop:
	VMULPD (SI), Y0, Y1
	VMOVUPD (DI), Y2
	VADDPD Y1, Y2, Y2
	VMOVUPD Y2, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ BX
	JNZ  aaloop
aatail:
	ANDQ $3, CX
	JZ   aadone
aatloop:
	VMOVSD (SI), X1
	VMULSD X1, X0, X1
	VMOVSD (DI), X2
	VADDSD X1, X2, X2
	VMOVSD X2, (DI)
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  aatloop
aadone:
	VZEROUPPER
	RET

// func adamStepAVX(w, grad, mw, vw *float64, n int, b1, b2, om1, om2, c1, c2, eps, lr float64)
// Per element, in the exact scalar order (every op correctly
// rounded, divides and square root included):
//   m = b1·mw + om1·g ; v = b2·vw + (om2·g)·g
//   w −= lr·(m/c1) / (√(v/c2) + eps)
TEXT ·adamStepAVX(SB), NOSPLIT, $0-104
	MOVQ w+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ mw+16(FP), R8
	MOVQ vw+24(FP), R9
	MOVQ n+32(FP), CX
	VBROADCASTSD b1+40(FP), Y8
	VBROADCASTSD b2+48(FP), Y10
	VBROADCASTSD om1+56(FP), Y9
	VBROADCASTSD om2+64(FP), Y11
	VBROADCASTSD c1+72(FP), Y12
	VBROADCASTSD c2+80(FP), Y13
	VBROADCASTSD eps+88(FP), Y14
	VBROADCASTSD lr+96(FP), Y6
	MOVQ CX, BX
	SHRQ $2, BX
	JZ   adtail
adloop:
	VMOVUPD (SI), Y1   // g
	VMOVUPD (R8), Y2   // mw
	VMULPD  Y2, Y8, Y2 // b1·mw
	VMULPD  Y1, Y9, Y4 // om1·g
	VADDPD  Y4, Y2, Y2 // m
	VMOVUPD Y2, (R8)
	VMOVUPD (R9), Y3   // vw
	VMULPD  Y3, Y10, Y3 // b2·vw
	VMULPD  Y1, Y11, Y4 // om2·g
	VMULPD  Y1, Y4, Y4  // (om2·g)·g
	VADDPD  Y4, Y3, Y3  // v
	VMOVUPD Y3, (R9)
	VDIVPD  Y12, Y2, Y2 // m/c1
	VMULPD  Y2, Y6, Y2  // lr·(m/c1)
	VDIVPD  Y13, Y3, Y3 // v/c2
	VSQRTPD Y3, Y3
	VADDPD  Y14, Y3, Y3 // √(v/c2) + eps
	VDIVPD  Y3, Y2, Y2  // update
	VMOVUPD (DI), Y0
	VSUBPD  Y2, Y0, Y0  // w − update
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, R9
	DECQ BX
	JNZ  adloop
adtail:
	ANDQ $3, CX
	JZ   addone
adtloop:
	VMOVSD (SI), X1
	VMOVSD (R8), X2
	VMULSD X2, X8, X2
	VMULSD X1, X9, X4
	VADDSD X4, X2, X2
	VMOVSD X2, (R8)
	VMOVSD (R9), X3
	VMULSD X3, X10, X3
	VMULSD X1, X11, X4
	VMULSD X1, X4, X4
	VADDSD X4, X3, X3
	VMOVSD X3, (R9)
	VDIVSD X12, X2, X2
	VMULSD X2, X6, X2
	VDIVSD X13, X3, X3
	VSQRTSD X3, X3, X3
	VADDSD X14, X3, X3
	VDIVSD X3, X2, X2
	VMOVSD (DI), X0
	VSUBSD X2, X0, X0
	VMOVSD X0, (DI)
	ADDQ $8, DI
	ADDQ $8, SI
	ADDQ $8, R8
	ADDQ $8, R9
	DECQ CX
	JNZ  adtloop
addone:
	VZEROUPPER
	RET
