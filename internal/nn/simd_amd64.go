//go:build amd64

package nn

// The AVX kernels live in simd_amd64.s. They use only VMULPD/VADDPD/
// VSUBPD/VDIVPD/VSQRTPD (plus memory-operand VBROADCASTSD), all of
// which are plain AVX and correctly rounded per IEEE 754 — no FMA, no
// horizontal reductions — so each lane reproduces the generic Go
// chain bit for bit. mathx.HasAVX checks CPUID for OSXSAVE+AVX and XCR0
// for OS-enabled YMM state before any of them is dispatched.

//go:noescape
func fwdrow8AVX(x, w *float64, cols int, acc *float64)

//go:noescape
func fwd2row8AVX(x, w *float64, cols int, acc *float64)

//go:noescape
func bwdrow8AVX(d, w, dprev *float64, cols int)

//go:noescape
func axpySetAVX(dst, x *float64, n int, a float64)

//go:noescape
func axpyAddAVX(dst, x *float64, n int, a float64)

//go:noescape
func adamStepAVX(w, grad, mw, vw *float64, n int, b1, b2, om1, om2, c1, c2, eps, lr float64)
