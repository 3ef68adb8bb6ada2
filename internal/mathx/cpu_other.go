//go:build !amd64

package mathx

// HasAVX is false off amd64: the SIMD kernels run their generic Go
// loops there.
func HasAVX() bool { return false }
