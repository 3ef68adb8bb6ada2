//go:build !amd64

package embedding

// Non-amd64 builds have mathx.HasAVX false; the AVX entry point is
// declared only so simd.go compiles and is never reached.

func adagradPairAVX(wi, wj, gwi, gwj *float64, n int, resid, lr float64) {
	panic("embedding: AVX kernel on non-amd64 build")
}
