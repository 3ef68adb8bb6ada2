package nn

import (
	"math"
	"testing"
)

// gradKernel builds a training kernel over a small network and fills its
// first chunk slot's gradient slab with a deterministic pattern, so Adam
// steps on two kernels compare apples to apples.
func gradKernel(t *testing.T) *TrainKernel {
	t.Helper()
	n, err := New(Config{InDim: 3, Hidden: []int{4}, Out: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	k, err := NewTrainKernel(n, TrainConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := k.slots[0]
	for i := range s.gw {
		s.gw[i] = float64(i%7-3) * 0.01
	}
	for i := range s.gb {
		s.gb[i] = float64(i%5-2) * 0.01
	}
	return k
}

// optStep runs one optimizer step on the pattern gradKernel left in
// slot 0: a one-chunk batch scaled by 1, so the batch gradient is the
// pattern itself.
func optStep(k *TrainKernel, lr float64) {
	k.beginStep(1, 1, lr)
	k.run(true, k.ranges)
}

func TestAdamBoundedSteps(t *testing.T) {
	k := gradKernel(t)
	before := append([]float64(nil), k.w...)
	optStep(k, 0.001)
	// Adam's per-parameter step is bounded by ~lr regardless of gradient
	// scale (bias-corrected first step has |Δ| ≈ lr).
	for i, w := range k.w {
		if d := math.Abs(w - before[i]); d > 0.0011 {
			t.Fatalf("Adam step %d too large: %v", i, d)
		}
	}
}

// TestAdamResetClearsState: after a rollback's resetOpt the next step is
// a first step again — bias correction restarts and the moments are zero.
func TestAdamResetClearsState(t *testing.T) {
	k := gradKernel(t)
	w0 := append([]float64(nil), k.w...)
	b0 := append([]float64(nil), k.b...)
	optStep(k, 0.001)
	first := append([]float64(nil), k.w...)
	optStep(k, 0.001)
	k.resetOpt()
	if k.adamT != 0 {
		t.Fatalf("resetOpt left step count %d", k.adamT)
	}
	copy(k.w, w0)
	copy(k.b, b0)
	optStep(k, 0.001)
	for i := range first {
		if math.Float64bits(k.w[i]) != math.Float64bits(first[i]) {
			t.Fatalf("step after reset: w[%d] = %v, want first-step %v", i, k.w[i], first[i])
		}
	}
}
