package embedding

import (
	"math"
	"math/rand"
	"testing"

	"leapme/internal/mathx"
)

// adagradVals fills n values that stress the AdaGrad update's rounding
// and sign handling: signed zeros, subnormals, large magnitudes and
// ordinary weights. nonNeg draws magnitudes only, as a history needs.
func adagradVals(rng *rand.Rand, n int, nonNeg bool) []float64 {
	out := make([]float64, n)
	for i := range out {
		var v float64
		switch rng.Intn(8) {
		case 0:
			v = 0
		case 1:
			v = math.Copysign(0, -1)
		case 2:
			v = math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1<<20)) // subnormal
		case 3:
			v = rng.NormFloat64() * 1e150
		default:
			v = rng.NormFloat64() * 0.1
		}
		if nonNeg {
			v = math.Abs(v) + float64(rng.Intn(2)) // 0, subnormal, or ≥ 1 like a live history
		}
		out[i] = v
	}
	return out
}

func bitsEqual(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), generic %v (%#x)", name, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestSIMDAdagradPairBitDeterminism pins the vectorised GloVe AdaGrad
// update — square roots and divides included — to the scalar reference,
// over lengths with and without a scalar tail, for zero, tiny, ordinary
// and overflowing residuals.
func TestSIMDAdagradPairBitDeterminism(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX: generic path is the only path")
	}
	rng := mathx.NewRand(7)
	lengths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 50}
	residuals := []float64{0, math.Copysign(0, -1), 5e-324, -0.37, 1.25, 1e200, -1e300}
	for _, n := range lengths {
		for _, g := range residuals {
			for rep := 0; rep < 3; rep++ {
				wiAsm, wjAsm := adagradVals(rng, n, false), adagradVals(rng, n, false)
				gwiAsm, gwjAsm := adagradVals(rng, n, true), adagradVals(rng, n, true)
				wiGen := append([]float64(nil), wiAsm...)
				wjGen := append([]float64(nil), wjAsm...)
				gwiGen := append([]float64(nil), gwiAsm...)
				gwjGen := append([]float64(nil), gwjAsm...)
				adagradPairAVX(&wiAsm[0], &wjAsm[0], &gwiAsm[0], &gwjAsm[0], n, g, 0.05)
				adagradPairGeneric(wiGen, wjGen, gwiGen, gwjGen, g, 0.05)
				bitsEqual(t, "wi", wiAsm, wiGen)
				bitsEqual(t, "wj", wjAsm, wjGen)
				bitsEqual(t, "gwi", gwiAsm, gwiGen)
				bitsEqual(t, "gwj", gwjAsm, gwjGen)
			}
		}
	}
}

// TestGloVeStepAllocs gates the per-pair step's //lint:hotpath
// annotation: one update allocates nothing on either path.
func TestGloVeStepAllocs(t *testing.T) {
	s := newGloVeSlabs(3, 50, 0.05, mathx.NewRand(1))
	for _, avx := range []bool{true, false} {
		func() {
			defer func(saved bool) { useAVX = saved }(useAVX)
			useAVX = avx && useAVX
			if allocs := testing.AllocsPerRun(100, func() { s.step(0, 2, 0.4, 0.7) }); allocs != 0 {
				t.Errorf("step (useAVX=%v) allocated %.1f times per run, want 0", useAVX, allocs)
			}
		}()
	}
}

// TestCooccurrenceOracleDeterminism pins CountCooccurrences to the map
// accumulation it replaced: on the golden corpus, every cell equals, bit
// for bit, its window weights summed from zero in corpus order, and the
// training examples come out in ascending (i, j) order.
func TestCooccurrenceOracleDeterminism(t *testing.T) {
	corpus := goldenCorpus()
	vocab := BuildVocab(corpus, 1)
	for _, window := range []int{1, 5} {
		oracle := map[[2]int]float64{}
		for _, sent := range corpus {
			var ids []int
			for _, w := range sent {
				if id, ok := vocab.ID(w); ok {
					ids = append(ids, id)
				}
			}
			for i := range ids {
				for j := i + 1; j <= i+window && j < len(ids); j++ {
					a, b := ids[i], ids[j]
					if a > b {
						a, b = b, a
					}
					oracle[[2]int{a, b}] += 1 / float64(j-i)
				}
			}
		}
		co := CountCooccurrences(corpus, vocab, window)
		if co.NumPairs() != len(oracle) {
			t.Fatalf("window %d: %d cells, oracle %d", window, co.NumPairs(), len(oracle))
		}
		for k, want := range oracle {
			if got := cell(co, k[0], k[1]); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("window %d: cell %v = %v, oracle %v", window, k, got, want)
			}
		}
		ex := co.examples(100, 0.75)
		for e := 1; e < len(ex); e++ {
			if p, q := ex[e-1], ex[e]; p.i > q.i || (p.i == q.i && p.j >= q.j) {
				t.Fatalf("window %d: examples %d and %d out of (i, j) order: %v then %v", window, e-1, e, p, q)
			}
		}
	}
}
