// AVX kernels for the flat training kernel and batched inference.
// Bit-identity rules:
// every lane is an independent sequential accumulator chain, every
// multiply and add is a separate correctly-rounded instruction (no
// FMA), accumulators are always the left operand of each add, and
// sums that start from zero start from a real zero register so −0
// products normalise to +0 exactly as the scalar code's `var sum
// float64; sum += ...` does. ReLU is VMAXPD with a +0 register as the
// second source (the first operand in Go's assembler order), which
// returns that +0 for NaN, −0 and +0 exactly as Go's `if x > 0 {
// return x }; return 0` does. See simd.go for the reference Go
// semantics each TEXT block must reproduce.

#include "textflag.h"

// func fwdrow8AVX(x, w, b *float64, cols int, out *float64, relu bool)
// out[e] = act(Σ_c w[c]·x[c*8+e] + b[0]); x unit-major stride 8, out
// 8 wide. act is ReLU when relu is set, else the identity.
TEXT ·fwdrow8AVX(SB), NOSPLIT, $0-41
	MOVQ x+0(FP), SI
	MOVQ w+8(FP), DI
	MOVQ b+16(FP), BX
	MOVQ cols+24(FP), CX
	MOVQ out+32(FP), DX
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
	VBROADCASTSD (BX), Y2
	VADDPD Y2, Y0, Y0 // acc + bias, acc left
	VADDPD Y2, Y1, Y1
	CMPB relu+40(FP), $0
	JEQ  f1store
	VXORPD Y5, Y5, Y5
	VMAXPD Y5, Y0, Y0 // +0 second source: x > 0 ? x : +0
	VMAXPD Y5, Y1, Y1
f1store:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VZEROUPPER
	RET

// func fwd2row8AVX(x, w, b *float64, cols int, out *float64, relu bool)
// Two adjacent weight rows (w and w+cols) against the same chunk, with
// biases b[0] and b[1]: out[0:8] for row 0, out[8:16] for row 1. Four
// accumulator chains keep both rows' add latencies overlapped; each
// chain is still strictly sequential in c.
TEXT ·fwd2row8AVX(SB), NOSPLIT, $0-41
	MOVQ x+0(FP), SI
	MOVQ w+8(FP), DI
	MOVQ b+16(FP), BX
	MOVQ cols+24(FP), CX
	MOVQ out+32(FP), DX
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
	VBROADCASTSD (BX), Y4
	VBROADCASTSD 8(BX), Y5
	VADDPD Y4, Y0, Y0 // acc + bias, acc left
	VADDPD Y4, Y1, Y1
	VADDPD Y5, Y2, Y2
	VADDPD Y5, Y3, Y3
	CMPB relu+40(FP), $0
	JEQ  f2store
	VXORPD Y6, Y6, Y6
	VMAXPD Y6, Y0, Y0 // +0 second source: x > 0 ? x : +0
	VMAXPD Y6, Y1, Y1
	VMAXPD Y6, Y2, Y2
	VMAXPD Y6, Y3, Y3
f2store:
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

// func outerRowAVX(dst, x, d *float64, off *int, lanes, cols int)
// dst[c] = ((0 + d[0]·x[off[0]+c]) + d[1]·x[off[1]+c]) + … over the
// lanes live lanes, in ascending lane order: per column the chain one
// axpySetGeneric and lanes−1 axpyAddGeneric sweeps run, term for term,
// but each column block is stored once. Sixteen columns (four chains)
// per block, then four, then one.
TEXT ·outerRowAVX(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ d+16(FP), R8
	MOVQ off+24(FP), R9
	MOVQ lanes+32(FP), R10
	MOVQ cols+40(FP), CX
	MOVQ CX, BX
	SHRQ $4, BX
	JZ   o4
o16loop:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ AX, AX
	TESTQ R10, R10
	JZ   o16store
o16lane:
	VBROADCASTSD (R8)(AX*8), Y4 // d[k]
	MOVQ (R9)(AX*8), R11
	LEAQ (SI)(R11*8), R12       // lane k's row at this block
	VMULPD (R12), Y4, Y5
	VADDPD Y5, Y0, Y0           // acc is the left add operand
	VMULPD 32(R12), Y4, Y6
	VADDPD Y6, Y1, Y1
	VMULPD 64(R12), Y4, Y7
	VADDPD Y7, Y2, Y2
	VMULPD 96(R12), Y4, Y8
	VADDPD Y8, Y3, Y3
	INCQ AX
	CMPQ AX, R10
	JNE  o16lane
o16store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, SI
	DECQ BX
	JNZ  o16loop
o4:
	MOVQ CX, BX
	ANDQ $15, BX
	SHRQ $2, BX
	JZ   o1
o4loop:
	VXORPD Y0, Y0, Y0
	XORQ AX, AX
	TESTQ R10, R10
	JZ   o4store
o4lane:
	VBROADCASTSD (R8)(AX*8), Y4
	MOVQ (R9)(AX*8), R11
	VMULPD (SI)(R11*8), Y4, Y5
	VADDPD Y5, Y0, Y0
	INCQ AX
	CMPQ AX, R10
	JNE  o4lane
o4store:
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	DECQ BX
	JNZ  o4loop
o1:
	ANDQ $3, CX
	JZ   odone
o1loop:
	VXORPD X0, X0, X0
	XORQ AX, AX
	TESTQ R10, R10
	JZ   o1store
o1lane:
	VMOVSD (R8)(AX*8), X4
	MOVQ (R9)(AX*8), R11
	VMULSD (SI)(R11*8), X4, X5
	VADDSD X5, X0, X0
	INCQ AX
	CMPQ AX, R10
	JNE  o1lane
o1store:
	VMOVSD X0, (DI)
	ADDQ $8, DI
	ADDQ $8, SI
	DECQ CX
	JNZ  o1loop
odone:
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
