// Package embedding provides the word-embedding substrate for LEAPME.
//
// The paper uses pre-trained 300-dimensional GloVe vectors (Common Crawl).
// Those weights are not redistributable and unavailable offline, so this
// package implements the *training side* of GloVe from scratch — vocabulary
// construction, windowed co-occurrence counting, and the AdaGrad-optimised
// weighted least-squares objective of Pennington et al. (2014). The
// trainer keeps its parameters on flat slabs and runs the per-dimension
// AdaGrad update as one AVX routine that is bit-identical to its generic
// Go reference (see simd.go), so a store's bytes are the same with and
// without AVX. Training on a domain corpus (see package domain) yields
// vectors whose geometry has the property LEAPME relies on: synonymous
// domain terms such as "mp", "megapixels" and "resolution" land near
// each other, while unrelated terms do not.
//
// The Store type is the serving side: it maps words to vectors, averages
// the vectors of a phrase (unknown words map to the zero vector, exactly as
// in the paper), and answers nearest-neighbour queries for diagnostics.
package embedding
