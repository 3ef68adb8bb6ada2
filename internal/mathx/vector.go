// Package mathx provides the small dense linear-algebra and statistics
// kernels used throughout LEAPME: vector arithmetic, reductions,
// deterministic random initialisers, and the CPU check (HasAVX) that
// gates the SIMD kernels of nn and embedding.
//
// All functions operate on []float64 and are allocation-conscious: the
// mutating variants (AddTo, ScaleTo, ...) write into a caller-supplied
// destination so hot loops in the neural network and the embedding trainer
// can reuse buffers.
package mathx

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b.
// It panics if the lengths differ; dimension mismatches are programming
// errors in this codebase, not runtime conditions.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mathx: Dot length mismatch %d != %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm2 returns the Euclidean (L2) norm of v.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// CosineSimilarity returns the cosine of the angle between a and b.
// If either vector has zero norm the similarity is defined as 0.
func CosineSimilarity(a, b []float64) float64 {
	na, nb := Norm2(a), Norm2(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// AddTo stores a+b into dst. dst may alias a or b.
func AddTo(dst, a, b []float64) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("mathx: AddTo length mismatch")
	}
	for i := range a {
		dst[i] = a[i] + b[i]
	}
}

// ScaleTo stores v*s into dst. dst may alias v.
func ScaleTo(dst, v []float64, s float64) {
	if len(dst) != len(v) {
		panic("mathx: ScaleTo length mismatch")
	}
	for i := range v {
		dst[i] = v[i] * s
	}
}

// Fill sets every element of v to x.
func Fill(v []float64, x float64) {
	for i := range v {
		v[i] = x
	}
}

// Zero sets every element of v to 0.
func Zero(v []float64) { Fill(v, 0) }

// Mean returns the arithmetic mean of v, or 0 for an empty slice.
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return Sum(v) / float64(len(v))
}

// Sum returns the sum of all elements of v.
func Sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// MeanVectors returns the element-wise mean of the given vectors, all of
// which must share the same length. It returns nil for an empty input.
func MeanVectors(vs [][]float64) []float64 {
	if len(vs) == 0 {
		return nil
	}
	out := make([]float64, len(vs[0]))
	for _, v := range vs {
		AddTo(out, out, v)
	}
	ScaleTo(out, out, 1/float64(len(vs)))
	return out
}

// Clone returns a copy of v.
func Clone(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// Normalized returns a unit-L2-norm copy of v. The zero vector (the
// repo's convention for fully out-of-vocabulary phrases) is returned as a
// zero copy, so cosine against it stays 0 rather than NaN.
func Normalized(v []float64) []float64 {
	out := Clone(v)
	NormalizeInPlace(out)
	return out
}

// NormalizeInPlace scales v to unit L2 norm in place, with the same
// zero-vector convention as Normalized.
func NormalizeInPlace(v []float64) {
	n := Norm2(v)
	if n == 0 {
		return
	}
	ScaleTo(v, v, 1/n)
}
