package nn

import (
	"math"
	"testing"
)

// gradKernel builds a training kernel over a small network and fills its
// batch-gradient slabs with a deterministic pattern, so optimizer steps
// on two kernels compare apples to apples.
func gradKernel(t *testing.T, opt Optimizer) *TrainKernel {
	t.Helper()
	n, err := New(Config{InDim: 3, Hidden: []int{4}, Out: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	k, err := NewTrainKernel(n, TrainConfig{Optimizer: opt, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range k.gw {
		k.gw[i] = float64(i%7-3) * 0.01
	}
	for i := range k.gb {
		k.gb[i] = float64(i%5-2) * 0.01
	}
	return k
}

func paramsWithin(a, b *TrainKernel, tol float64) bool {
	for i := range a.w {
		if math.Abs(a.w[i]-b.w[i]) > tol {
			return false
		}
	}
	for i := range a.b {
		if math.Abs(a.b[i]-b.b[i]) > tol {
			return false
		}
	}
	return true
}

func TestSGDZeroMomentumMatchesPlain(t *testing.T) {
	a, b := gradKernel(t, NewSGD(0)), gradKernel(t, NewSGD(1e-300))
	// The momentum branch with ~zero momentum equals plain SGD after any
	// number of steps.
	for i := 0; i < 3; i++ {
		a.optStep(0.1)
		b.optStep(0.1)
	}
	if !paramsWithin(a, b, 1e-12) {
		t.Error("SGD with ~zero momentum diverges from plain SGD")
	}
}

func TestSGDDescendsGradient(t *testing.T) {
	k := gradKernel(t, NewSGD(0))
	before, grad := k.w[0], k.gw[0]
	k.optStep(0.5)
	if want := before - 0.5*grad; math.Abs(k.w[0]-want) > 1e-12 {
		t.Errorf("SGD step: got %v, want %v", k.w[0], want)
	}
}

func TestMomentumAccumulates(t *testing.T) {
	k := gradKernel(t, NewSGD(0.9))
	if k.gw[0] == 0 {
		t.Fatal("zero gradient at probe position")
	}
	// Two identical gradient steps: velocity builds, so the second
	// displacement is (1 + momentum) times the first.
	w0 := k.w[0]
	k.optStep(0.1)
	w1 := k.w[0]
	k.optStep(0.1)
	w2 := k.w[0]
	d1, d2 := math.Abs(w1-w0), math.Abs(w2-w1)
	if d2 <= d1 {
		t.Errorf("momentum did not accelerate: first step %v, second %v", d1, d2)
	}
	if math.Abs(d2-1.9*d1) > 1e-9*d1 {
		t.Errorf("second step = %v, want 1.9× first step %v", d2, d1)
	}
}

func TestAdamBoundedSteps(t *testing.T) {
	k := gradKernel(t, NewAdam())
	before := append([]float64(nil), k.w...)
	k.optStep(0.001)
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
	k := gradKernel(t, NewAdam())
	w0 := append([]float64(nil), k.w...)
	b0 := append([]float64(nil), k.b...)
	k.optStep(0.001)
	first := append([]float64(nil), k.w...)
	k.optStep(0.001)
	k.resetOpt()
	if k.adamT != 0 {
		t.Fatalf("resetOpt left step count %d", k.adamT)
	}
	copy(k.w, w0)
	copy(k.b, b0)
	k.optStep(0.001)
	for i := range first {
		if math.Float64bits(k.w[i]) != math.Float64bits(first[i]) {
			t.Fatalf("step after reset: w[%d] = %v, want first-step %v", i, k.w[i], first[i])
		}
	}
}
