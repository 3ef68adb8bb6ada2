//go:build amd64

package mathx

// HasAVX reports whether the CPU and OS support AVX: CPUID leaf 1 ECX
// bits 27 (OSXSAVE) and 28 (AVX), plus XMM|YMM state enabled in XCR0.
// The SIMD kernels of nn and embedding read it once at init to choose
// between their AVX routines and the generic Go reference loops.
func HasAVX() bool
