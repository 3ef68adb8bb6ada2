package nn

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"

	"leapme/internal/mathx"
)

// specialVals are the IEEE 754 edge values the AVX routines must carry
// exactly as the generic Go code does: NaN, ±Inf, ±0, subnormals, the
// ends of the normal range and plain ±1.
var specialVals = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -3e-310,
	math.MaxFloat64, -math.MaxFloat64, 1, -1,
}

// simdVals fills a slice with values that stress rounding and sign
// handling: mixed magnitudes, exact negatives, signed zeros and
// subnormals. With special set, about one value in 32 is NaN or ±Inf.
func simdVals(rng *rand.Rand, n int, special bool) []float64 {
	out := make([]float64, n)
	for i := range out {
		switch rng.Intn(16) {
		case 0:
			out[i] = 0
		case 1:
			out[i] = math.Copysign(0, -1)
		case 2:
			out[i] = rng.Float64() * 1e-8
		case 3:
			out[i] = (rng.Float64() - 0.5) * 0x1p-1021 // subnormal
		case 4:
			if special && rng.Intn(2) == 0 {
				out[i] = specialVals[rng.Intn(3)] // NaN, +Inf or −Inf
				continue
			}
			out[i] = rng.NormFloat64()
		default:
			out[i] = rng.NormFloat64()
		}
	}
	return out
}

// bitsEqual requires got and want to match bit for bit, with one
// exception: where want is NaN, got must be NaN too but its payload may
// differ. Go leaves open which payload an operation on two NaNs returns,
// and gc commutes float adds and multiplies as register allocation
// suits (in fwdrow8Generic the spilled lanes 6 and 7 add the product
// first), so no routine can match the generic payloads in general.
// Every other value — signed zeros, infinities, subnormals, and ReLU's
// +0 for a NaN sum — must be identical.
func bitsEqual(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.IsNaN(want[i]) && math.IsNaN(got[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: got %x (%g), want %x (%g)",
				name, i, math.Float64bits(got[i]), got[i],
				math.Float64bits(want[i]), want[i])
		}
	}
}

// TestSIMDKernelsBitDeterminism pins the AVX kernels to the generic
// Go reference semantics bit for bit, across awkward lengths (SIMD
// tails), sign-of-zero cases, subnormals and — in the special pass —
// NaN and ±Inf, with the forward epilogue as ReLU and as the identity.
// On machines without AVX the asm and generic paths are the same code
// and the test is a tautology.
func TestSIMDKernelsBitDeterminism(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX: generic path is the only path")
	}
	rng := mathx.NewRand(11)
	for _, special := range []bool{false, true} {
		for _, cols := range []int{1, 2, 3, 5, 16, 33, 101, 128} {
			x := simdVals(rng, cols*gradChunkSize, special)
			w := simdVals(rng, 2*cols, special)
			b := simdVals(rng, 2, special)

			for _, relu := range []bool{false, true} {
				var outAsm, outGen [gradChunkSize]float64
				fwdrow8AVX(&x[0], &w[0], &b[0], cols, &outAsm[0], relu)
				fwdrow8Generic(&outGen, x, w[:cols], b[0], relu)
				bitsEqual(t, "fwdrow8", outAsm[:], outGen[:])

				var out2Asm, out2Gen [2 * gradChunkSize]float64
				fwd2row8AVX(&x[0], &w[0], &b[0], cols, &out2Asm[0], relu)
				fwd2row8Generic(&out2Gen, x, w, b, relu)
				bitsEqual(t, "fwd2row8", out2Asm[:], out2Gen[:])
			}

			d := simdVals(rng, gradChunkSize, special)
			dpAsm := simdVals(rng, cols*gradChunkSize, special)
			dpGen := append([]float64(nil), dpAsm...)
			bwdrow8AVX(&d[0], &w[0], &dpAsm[0], cols)
			bwdrow8Generic(d, w[:cols], dpGen)
			bitsEqual(t, "bwdrow8", dpAsm, dpGen)
		}
	}
}

// TestSIMDForwardEpilogueSpecials pins the fused bias + ReLU epilogue
// to the generic reference bit for bit with every edge value as a sum
// and as a bias, and ReLU to Go's branch: +0 (all bits clear) whenever
// the biased sum is not > 0, NaN and −0 included. One column of weight
// 1 makes lane e's sum 0 + 1·x[e], the special value itself (a −0
// becomes +0, as a zero-seeded sum does).
func TestSIMDForwardEpilogueSpecials(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX: generic path is the only path")
	}
	n := len(specialVals)
	w := []float64{1, 1}
	for shift := 0; shift < n; shift++ {
		x := make([]float64, gradChunkSize)
		for e := range x {
			x[e] = specialVals[(shift+e)%n]
		}
		for j := range specialVals {
			b := []float64{specialVals[j], specialVals[(j+1)%n]}
			for _, relu := range []bool{false, true} {
				var outAsm, outGen [gradChunkSize]float64
				fwdrow8AVX(&x[0], &w[0], &b[0], 1, &outAsm[0], relu)
				fwdrow8Generic(&outGen, x, w[:1], b[0], relu)
				bitsEqual(t, "fwdrow8 epilogue", outAsm[:], outGen[:])

				var out2Asm, out2Gen [2 * gradChunkSize]float64
				fwd2row8AVX(&x[0], &w[0], &b[0], 1, &out2Asm[0], relu)
				fwd2row8Generic(&out2Gen, x, w, b, relu)
				bitsEqual(t, "fwd2row8 epilogue", out2Asm[:], out2Gen[:])

				if !relu {
					continue
				}
				for e, v := range outAsm {
					if z := (0 + x[e]) + b[0]; !(z > 0) && math.Float64bits(v) != 0 {
						t.Fatalf("relu(%g + %g) = %x, want +0", x[e], b[0], math.Float64bits(v))
					}
				}
			}
		}
	}
}

// TestSIMDOuterRowBitDeterminism pins the one-pass outer product to the
// axpySetGeneric/axpyAddGeneric chain: every live-lane count from none to
// eight, −0 and special deltas, and every column tail of the 16- and
// 4-column blocks. The destination starts with stale values, which the
// routine must overwrite.
func TestSIMDOuterRowBitDeterminism(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX: generic path is the only path")
	}
	defer func() { useAVX = true }()
	rng := mathx.NewRand(5)
	colsList := []int{101, 128}
	for c := 1; c <= 40; c++ {
		colsList = append(colsList, c)
	}
	for _, cols := range colsList {
		for lanes := 0; lanes <= gradChunkSize; lanes++ {
			for _, special := range []bool{false, true} {
				x := simdVals(rng, gradChunkSize*cols, special) // example-major rows
				live := rng.Perm(gradChunkSize)[:lanes]
				sort.Ints(live)
				var d [gradChunkSize]float64
				var off [gradChunkSize]int
				dv := simdVals(rng, lanes, special)
				for k, e := range live {
					d[k], off[k] = dv[k], e*cols
					if k%3 == 1 {
						d[k] = math.Copysign(0, -1)
					}
				}
				got := simdVals(rng, cols, special)
				want := append([]float64(nil), got...)
				useAVX = true
				outerRow(got, x, &d, &off, lanes)
				useAVX = false
				outerRow(want, x, &d, &off, lanes)
				bitsEqual(t, "outerRow", got, want)
				if lanes == 0 {
					bitsEqual(t, "outerRow (no live lane)", got, make([]float64, cols))
				}
			}
		}
	}
}

// TestSIMDAdamStepBitDeterminism pins the vectorised Adam update —
// divides and square root included — to the scalar reference.
func TestSIMDAdamStepBitDeterminism(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX: generic path is the only path")
	}
	rng := mathx.NewRand(7)
	b1, b2, eps, lr := 0.9, 0.999, 1e-8, 1e-3
	for _, n := range []int{1, 2, 3, 4, 7, 64, 101} {
		for step := 1; step <= 3; step++ {
			c1 := 1 - math.Pow(b1, float64(step))
			c2 := 1 - math.Pow(b2, float64(step))
			g := simdVals(rng, n, step == 3)
			wAsm := simdVals(rng, n, false)
			mwAsm := simdVals(rng, n, false)
			vwAsm := make([]float64, n)
			for i := range vwAsm {
				vwAsm[i] = rng.Float64() // v must stay ≥ 0 like a real second moment
			}
			wGen := append([]float64(nil), wAsm...)
			mwGen := append([]float64(nil), mwAsm...)
			vwGen := append([]float64(nil), vwAsm...)
			adamStepAVX(&wAsm[0], &g[0], &mwAsm[0], &vwAsm[0], n, b1, b2, 1-b1, 1-b2, c1, c2, eps, lr)
			adamStepGeneric(wGen, g, mwGen, vwGen, b1, b2, c1, c2, eps, lr)
			bitsEqual(t, "adam w", wAsm, wGen)
			bitsEqual(t, "adam m", mwAsm, mwGen)
			bitsEqual(t, "adam v", vwAsm, vwGen)
		}
	}
}

// FuzzSIMDKernels compares every AVX routine with its generic reference
// on fuzzed lengths and values: data is read as raw little-endian
// float64 bits, cycled, so NaNs, infinities, subnormals and signed
// zeros all occur.
func FuzzSIMDKernels(f *testing.F) {
	seed := make([]byte, 0, 8*len(specialVals))
	for _, v := range specialVals {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(uint8(1), uint8(3), seed)
	f.Add(uint8(37), uint8(8), seed[:40])
	f.Add(uint8(16), uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, colsB, lanesB uint8, data []byte) {
		if !useAVX {
			t.Skip("no AVX: generic path is the only path")
		}
		cols := int(colsB)%130 + 1
		lanes := int(lanesB) % (gradChunkSize + 1)
		pos := 0
		vals := func(n int) []float64 {
			out := make([]float64, n)
			if len(data) < 8 {
				return out
			}
			for i := range out {
				if pos+8 > len(data) {
					pos = 0
				}
				out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[pos:]))
				pos += 8
			}
			return out
		}
		x := vals(cols * gradChunkSize)
		w := vals(2 * cols)
		b := vals(2)
		for _, relu := range []bool{false, true} {
			var outAsm, outGen [gradChunkSize]float64
			fwdrow8AVX(&x[0], &w[0], &b[0], cols, &outAsm[0], relu)
			fwdrow8Generic(&outGen, x, w[:cols], b[0], relu)
			bitsEqual(t, "fwdrow8", outAsm[:], outGen[:])

			var out2Asm, out2Gen [2 * gradChunkSize]float64
			fwd2row8AVX(&x[0], &w[0], &b[0], cols, &out2Asm[0], relu)
			fwd2row8Generic(&out2Gen, x, w, b, relu)
			bitsEqual(t, "fwd2row8", out2Asm[:], out2Gen[:])
		}

		d := vals(gradChunkSize)
		dpAsm := vals(cols * gradChunkSize)
		dpGen := append([]float64(nil), dpAsm...)
		bwdrow8AVX(&d[0], &w[0], &dpAsm[0], cols)
		bwdrow8Generic(d, w[:cols], dpGen)
		bitsEqual(t, "bwdrow8", dpAsm, dpGen)

		var dz [gradChunkSize]float64
		var off [gradChunkSize]int
		for k := 0; k < lanes; k++ {
			dz[k], off[k] = d[k], (gradChunkSize-lanes+k)*cols
		}
		got := vals(cols)
		want := append([]float64(nil), got...)
		outerRowAVX(&got[0], &x[0], &dz[0], &off[0], lanes, cols)
		useAVX = false
		outerRow(want, x, &dz, &off, lanes)
		useAVX = true
		bitsEqual(t, "outerRow", got, want)

		g := vals(cols)
		wAsm, mAsm, vAsm := vals(cols), vals(cols), vals(cols)
		wGen := append([]float64(nil), wAsm...)
		mGen := append([]float64(nil), mAsm...)
		vGen := append([]float64(nil), vAsm...)
		c1 := 1 - math.Pow(adamBeta1, float64(lanes+1))
		c2 := 1 - math.Pow(adamBeta2, float64(lanes+1))
		b1, b2 := adamBeta1, adamBeta2
		adamStepAVX(&wAsm[0], &g[0], &mAsm[0], &vAsm[0], cols, b1, b2, 1-b1, 1-b2, c1, c2, adamEps, 1e-3)
		adamStepGeneric(wGen, g, mGen, vGen, b1, b2, c1, c2, adamEps, 1e-3)
		bitsEqual(t, "adam w", wAsm, wGen)
		bitsEqual(t, "adam m", mAsm, mGen)
		bitsEqual(t, "adam v", vAsm, vGen)
	})
}
