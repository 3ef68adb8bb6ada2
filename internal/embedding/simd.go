package embedding

import (
	"math"

	"leapme/internal/mathx"
)

// The GloVe step's per-dimension AdaGrad update runs as one vertical AVX
// routine. Every dimension is independent and every operation — the two
// gradients, the square roots, the divides, the weight subtracts and the
// history adds — is a separate correctly-rounded IEEE 754 instruction
// (no FMA, no reciprocal square root), issued with the scalar code's
// operand order. The assembly path is therefore bit-identical to the
// generic Go loop below, which stays the reference semantics and the
// fallback for non-amd64 builds and pre-AVX CPUs.
//
// useAVX is resolved once at init via CPUID (mathx.HasAVX); tests force
// it off to pin the generic path.
var useAVX = mathx.HasAVX()

// adagradPair applies one direction's AdaGrad update to a word row wi
// and a context row wj with their histories gwi and gwj, for the scaled
// residual g = f(x)·(wi·wj + bi + bj − log x):
//
//	gradI = g·wj[k]; gradJ = g·wi[k]          (both from the old weights)
//	wi[k] −= lr·gradI / √gwi[k]; wj[k] −= lr·gradJ / √gwj[k]
//	gwi[k] += gradI·gradI; gwj[k] += gradJ·gradJ (after the weight steps)
//
// All four slices have the same length and must not overlap.
func adagradPair(wi, wj, gwi, gwj []float64, g, lr float64) {
	if useAVX {
		adagradPairAVX(&wi[0], &wj[0], &gwi[0], &gwj[0], len(wi), g, lr)
		return
	}
	adagradPairGeneric(wi, wj, gwi, gwj, g, lr)
}

func adagradPairGeneric(wi, wj, gwi, gwj []float64, g, lr float64) {
	wj, gwi, gwj = wj[:len(wi)], gwi[:len(wi)], gwj[:len(wi)]
	for k := range wi {
		gradI := g * wj[k]
		gradJ := g * wi[k]
		wi[k] -= lr * gradI / math.Sqrt(gwi[k])
		wj[k] -= lr * gradJ / math.Sqrt(gwj[k])
		gwi[k] += gradI * gradI
		gwj[k] += gradJ * gradJ
	}
}
