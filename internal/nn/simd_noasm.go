//go:build !amd64

package nn

// Non-amd64 builds have mathx.HasAVX false; the AVX entry points are
// declared only so simd.go compiles and are never reached.

func fwdrow8AVX(x, w, b *float64, cols int, out *float64, relu bool) {
	panic("nn: AVX kernel on non-amd64 build")
}

func fwd2row8AVX(x, w, b *float64, cols int, out *float64, relu bool) {
	panic("nn: AVX kernel on non-amd64 build")
}

func bwdrow8AVX(d, w, dprev *float64, cols int) {
	panic("nn: AVX kernel on non-amd64 build")
}

func outerRowAVX(dst, x, d *float64, off *int, lanes, cols int) {
	panic("nn: AVX kernel on non-amd64 build")
}

func adamStepAVX(w, grad, mw, vw *float64, n int, b1, b2, om1, om2, c1, c2, eps, lr float64) {
	panic("nn: AVX kernel on non-amd64 build")
}
