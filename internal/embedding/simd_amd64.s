// AVX kernel for the GloVe AdaGrad step. Bit-identity rules, as in
// internal/nn/simd_amd64.s: every dimension is an independent lane,
// every multiply, divide, square root, subtract and add is a separate
// correctly-rounded instruction (no FMA, no VRSQRT), and each
// instruction takes its operands in the scalar expression's order (in
// Go assembler syntax the middle operand is the left one). See simd.go
// for the reference Go semantics.

#include "textflag.h"

// func adagradPairAVX(wi, wj, gwi, gwj *float64, n int, resid, lr float64)
// Per dimension k, in the exact scalar order (g = resid):
//   gradI = g·wj[k] ; gradJ = g·wi[k]
//   wi[k] = wi[k] − (lr·gradI)/√gwi[k] ; wj[k] = wj[k] − (lr·gradJ)/√gwj[k]
//   gwi[k] = gwi[k] + gradI·gradI ; gwj[k] = gwj[k] + gradJ·gradJ
TEXT ·adagradPairAVX(SB), NOSPLIT, $0-56
	MOVQ wi+0(FP), DI
	MOVQ wj+8(FP), SI
	MOVQ gwi+16(FP), R8
	MOVQ gwj+24(FP), R9
	MOVQ n+32(FP), CX
	VBROADCASTSD resid+40(FP), Y0
	VBROADCASTSD lr+48(FP), Y1
	MOVQ CX, BX
	SHRQ $2, BX
	JZ   agtail
agloop:
	VMOVUPD (DI), Y2     // wi
	VMOVUPD (SI), Y3     // wj
	VMOVUPD (R8), Y6     // gwi
	VMOVUPD (R9), Y7     // gwj
	VMULPD  Y3, Y0, Y4   // gradI = g·wj
	VMULPD  Y2, Y0, Y5   // gradJ = g·wi
	VSQRTPD Y6, Y10      // √gwi
	VSQRTPD Y7, Y11      // √gwj
	VMULPD  Y4, Y1, Y8   // lr·gradI
	VMULPD  Y5, Y1, Y9   // lr·gradJ
	VDIVPD  Y10, Y8, Y8  // (lr·gradI)/√gwi
	VDIVPD  Y11, Y9, Y9  // (lr·gradJ)/√gwj
	VSUBPD  Y8, Y2, Y2   // wi − step
	VSUBPD  Y9, Y3, Y3   // wj − step
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, (SI)
	VMULPD  Y4, Y4, Y4   // gradI·gradI
	VMULPD  Y5, Y5, Y5   // gradJ·gradJ
	VADDPD  Y4, Y6, Y6   // gwi + gradI²
	VADDPD  Y5, Y7, Y7   // gwj + gradJ²
	VMOVUPD Y6, (R8)
	VMOVUPD Y7, (R9)
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, R8
	ADDQ $32, R9
	DECQ BX
	JNZ  agloop
agtail:
	ANDQ $3, CX
	JZ   agdone
agtloop:
	VMOVSD (DI), X2
	VMOVSD (SI), X3
	VMOVSD (R8), X6
	VMOVSD (R9), X7
	VMULSD X3, X0, X4
	VMULSD X2, X0, X5
	VSQRTSD X6, X6, X10
	VSQRTSD X7, X7, X11
	VMULSD X4, X1, X8
	VMULSD X5, X1, X9
	VDIVSD X10, X8, X8
	VDIVSD X11, X9, X9
	VSUBSD X8, X2, X2
	VSUBSD X9, X3, X3
	VMOVSD X2, (DI)
	VMOVSD X3, (SI)
	VMULSD X4, X4, X4
	VMULSD X5, X5, X5
	VADDSD X4, X6, X6
	VADDSD X5, X7, X7
	VMOVSD X6, (R8)
	VMOVSD X7, (R9)
	ADDQ $8, DI
	ADDQ $8, SI
	ADDQ $8, R8
	ADDQ $8, R9
	DECQ CX
	JNZ  agtloop
agdone:
	VZEROUPPER
	RET
