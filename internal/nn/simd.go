package nn

import (
	"math"

	"leapme/internal/mathx"
)

// SIMD kernels for the flat kernels' hot loops.
//
// The flat training kernel's inner loops are eight independent
// per-example accumulator chains advanced in lockstep (see
// TrainKernel); inference (Kernel.ForwardBatch) runs its forward pass
// through the same fwdRow8/fwd2Row8 routines, so every forward pass in
// the package, partial chunks included, is one of these calls. Vertical
// SIMD — one VMULPD + VADDPD per column over the eight lanes — performs
// exactly the same multiply-then-add per lane as the scalar code: AVX
// packed mul/add are IEEE 754 correctly-rounded per element, each lane
// stays an independent sequential chain, and no fused multiply-add is
// used (FMA rounds once where mul+add rounds twice, which would change
// bits). The forward routines finish each lane in registers: the bias
// is one VADDPD with the sum as the left operand, and ReLU is one
// VMAXPD against a +0 register given as the second source, which yields
// that +0 whenever the lane is not > 0 — NaN and −0 included — exactly
// as reluOf's branch does. The outer-product routine keeps each
// column's zero-seeded chain over the live lanes in lane order. The
// assembly paths are therefore bit-identical to the generic Go paths
// below, which remain the reference semantics and the fallback for
// non-amd64 builds and pre-AVX CPUs.
//
// useAVX is resolved once at init via CPUID (mathx.HasAVX: OSXSAVE +
// AVX + YMM state enabled in XCR0); it is false off amd64.
var useAVX = mathx.HasAVX()

// fwdRow8 computes one weight row's activations for a full chunk:
// out[e] = act(Σ_c w[c]·x[c*8+e] + b[0]), each lane a sequential dot
// chain in ascending c starting from zero (the mathx.Dot order per
// example), the bias added to the finished sum, and act ReLU when relu
// is set, else the identity. x is unit-major with stride 8 and must
// hold len(w)*8 values.
func fwdRow8(out *[gradChunkSize]float64, x, w, b []float64, relu bool) {
	if useAVX {
		fwdrow8AVX(&x[0], &w[0], &b[0], len(w), &out[0], relu)
		return
	}
	fwdrow8Generic(out, x, w, b[0], relu)
}

// fwd2Row8 runs fwdRow8 for two adjacent weight rows against the
// same chunk: w holds both rows back to back (len 2·cols), b their two
// biases; out[0:8] gets the first row's lanes and out[8:16] the
// second's. Fusing the rows keeps four independent accumulator chains
// in flight, hiding the add latency that bounds the single-row loop;
// each chain is still a strictly sequential dot in ascending c, so the
// bits match two fwdRow8 calls exactly.
func fwd2Row8(out *[2 * gradChunkSize]float64, x, w, b []float64, relu bool) {
	if useAVX {
		fwd2row8AVX(&x[0], &w[0], &b[0], len(w)/2, &out[0], relu)
		return
	}
	fwd2row8Generic(out, x, w, b, relu)
}

// bwdRow8 propagates one row's deltas into the previous layer's
// delta block: dprev[c*8+e] += d[e]·w[c], unconditionally (the
// MulVecT order — no zero-skip, signed zeros must match). d holds
// the row's eight delta lanes, dprev is unit-major with stride 8.
func bwdRow8(d, w, dprev []float64) {
	if useAVX {
		bwdrow8AVX(&d[0], &w[0], &dprev[0], len(w))
		return
	}
	bwdrow8Generic(d, w, dprev)
}

// outerRow stores one weight row's chunk gradient from its live lanes:
// lane k has delta d[k] and its input row at x[off[k]:], and
//
//	dst[c] = ((0 + d[0]·x[off[0]+c]) + d[1]·x[off[1]+c]) + …
//
// over the first n lanes in the order given. The leading zero is
// load-bearing: it normalises a −0 product to +0 exactly as
// accumulating into a zeroed buffer does. With no live lane every
// column is +0. The generic path runs it as one axpySetGeneric sweep
// and n−1 axpyAddGeneric sweeps over dst; the AVX routine computes the
// same chain per column and stores each column block once.
func outerRow(dst, x []float64, d *[gradChunkSize]float64, off *[gradChunkSize]int, n int) {
	if useAVX {
		outerRowAVX(&dst[0], &x[0], &d[0], &off[0], n, len(dst))
		return
	}
	if n == 0 {
		clear(dst)
		return
	}
	axpySetGeneric(dst, x[off[0]:][:len(dst)], d[0])
	for k := 1; k < n; k++ {
		axpyAddGeneric(dst, x[off[k]:][:len(dst)], d[k])
	}
}

// adamStep applies one flat Adam update over n elements:
//
//	m = b1·mw[j] + (1−b1)·g
//	v = b2·vw[j] + (1−b2)·g·g
//	w[j] −= lr · (m/c1) / (√(v/c2) + eps)
//
// Every element is independent and every operation (including the
// divides and the square root) is correctly rounded per IEEE 754, so
// the vectorised path is bit-identical to this scalar order.
func adamStep(w, g, mw, vw []float64, b1, b2, c1, c2, eps, lr float64) {
	if useAVX {
		adamStepAVX(&w[0], &g[0], &mw[0], &vw[0], len(w), b1, b2, 1-b1, 1-b2, c1, c2, eps, lr)
		return
	}
	adamStepGeneric(w, g, mw, vw, b1, b2, c1, c2, eps, lr)
}

func fwdrow8Generic(out *[gradChunkSize]float64, x, w []float64, b float64, relu bool) {
	var a0, a1, a2, a3, a4, a5, a6, a7 float64
	for c, wv := range w {
		cb := c * gradChunkSize
		xc := x[cb : cb+gradChunkSize]
		a0 += wv * xc[0]
		a1 += wv * xc[1]
		a2 += wv * xc[2]
		a3 += wv * xc[3]
		a4 += wv * xc[4]
		a5 += wv * xc[5]
		a6 += wv * xc[6]
		a7 += wv * xc[7]
	}
	out[0], out[1], out[2], out[3] = a0+b, a1+b, a2+b, a3+b
	out[4], out[5], out[6], out[7] = a4+b, a5+b, a6+b, a7+b
	if relu {
		for e, v := range out {
			out[e] = reluOf(v)
		}
	}
}

func fwd2row8Generic(out *[2 * gradChunkSize]float64, x, w, b []float64, relu bool) {
	cols := len(w) / 2
	fwdrow8Generic((*[gradChunkSize]float64)(out[:gradChunkSize]), x, w[:cols], b[0], relu)
	fwdrow8Generic((*[gradChunkSize]float64)(out[gradChunkSize:]), x, w[cols:], b[1], relu)
}

func bwdrow8Generic(d, w, dprev []float64) {
	dre := d[:gradChunkSize]
	d0, d1, d2, d3 := dre[0], dre[1], dre[2], dre[3]
	d4, d5, d6, d7 := dre[4], dre[5], dre[6], dre[7]
	for c, wv := range w {
		cb := c * gradChunkSize
		p := dprev[cb : cb+gradChunkSize]
		p[0] += d0 * wv
		p[1] += d1 * wv
		p[2] += d2 * wv
		p[3] += d3 * wv
		p[4] += d4 * wv
		p[5] += d5 * wv
		p[6] += d6 * wv
		p[7] += d7 * wv
	}
}

func axpySetGeneric(dst, x []float64, a float64) {
	for i := range dst {
		dst[i] = 0 + a*x[i]
	}
}

func axpyAddGeneric(dst, x []float64, a float64) {
	for i := range dst {
		dst[i] += a * x[i]
	}
}

func adamStepGeneric(w, g, mw, vw []float64, b1, b2, c1, c2, eps, lr float64) {
	for j, gv := range g {
		m := b1*mw[j] + (1-b1)*gv
		v := b2*vw[j] + (1-b2)*gv*gv
		mw[j] = m
		vw[j] = v
		w[j] -= lr * (m / c1) / (math.Sqrt(v/c2) + eps)
	}
}
