//go:build amd64

package nn

// The AVX kernels live in simd_amd64.s. They use only VMULPD/VADDPD/
// VSUBPD/VDIVPD/VSQRTPD/VMAXPD (plus memory-operand VBROADCASTSD), all
// of which are plain AVX and exact or correctly rounded per IEEE 754 —
// no FMA, no horizontal reductions — so each lane reproduces the
// generic Go chain bit for bit. VMAXPD is the ReLU: with a +0 register
// as its second source it returns the lane only when the lane is > 0
// and that +0 otherwise (NaN, ±0 and negatives alike), the result of
// Go's `if x > 0 { return x }; return 0`. mathx.HasAVX checks CPUID for
// OSXSAVE+AVX and XCR0 for OS-enabled YMM state before any of them is
// dispatched.

//go:noescape
func fwdrow8AVX(x, w, b *float64, cols int, out *float64, relu bool)

//go:noescape
func fwd2row8AVX(x, w, b *float64, cols int, out *float64, relu bool)

//go:noescape
func bwdrow8AVX(d, w, dprev *float64, cols int)

//go:noescape
func outerRowAVX(dst, x, d *float64, off *int, lanes, cols int)

//go:noescape
func adamStepAVX(w, grad, mw, vw *float64, n int, b1, b2, om1, om2, c1, c2, eps, lr float64)
