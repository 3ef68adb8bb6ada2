package mathx

import "math/rand"

// NewRand returns a rand.Rand seeded deterministically. Every stochastic
// component in this repository threads one of these through its API so
// experiments are reproducible run to run.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// FillUniform fills v with samples from U(lo, hi).
func FillUniform(v []float64, lo, hi float64, rng *rand.Rand) {
	span := hi - lo
	for i := range v {
		v[i] = lo + span*rng.Float64()
	}
}

// FillNormal fills v with samples from N(mean, std²).
func FillNormal(v []float64, mean, std float64, rng *rand.Rand) {
	for i := range v {
		v[i] = mean + std*rng.NormFloat64()
	}
}

// Shuffle permutes idx in place using Fisher–Yates.
func Shuffle(idx []int, rng *rand.Rand) {
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
}
