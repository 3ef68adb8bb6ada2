package ml

import (
	"math"
	"testing"

	"leapme/internal/mathx"
)

// blobs returns two well-separated Gaussian blobs — linearly separable.
func blobs(n int, seed int64) ([][]float64, []int) {
	rng := mathx.NewRand(seed)
	var xs [][]float64
	var ys []int
	for i := 0; i < n; i++ {
		c := i % 2
		cx := float64(c)*4 - 2
		xs = append(xs, []float64{cx + rng.NormFloat64()*0.7, cx + rng.NormFloat64()*0.7})
		ys = append(ys, c)
	}
	return xs, ys
}

// rings returns a non-linear problem: class 1 inside a ring, class 0 outside.
func rings(n int, seed int64) ([][]float64, []int) {
	rng := mathx.NewRand(seed)
	var xs [][]float64
	var ys []int
	for i := 0; i < n; i++ {
		x := rng.Float64()*4 - 2
		y := rng.Float64()*4 - 2
		label := 0
		if x*x+y*y < 1 {
			label = 1
		}
		xs = append(xs, []float64{x, y})
		ys = append(ys, label)
	}
	return xs, ys
}

func accuracy(c *AdaBoost, xs [][]float64, ys []int) float64 {
	correct := 0
	for i, x := range xs {
		pred := 0
		if c.PredictProba(x) >= 0.5 {
			pred = 1
		}
		if pred == ys[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(xs))
}

func TestAllLearnBlobs(t *testing.T) {
	xs, ys := blobs(200, 1)
	c := &AdaBoost{Rounds: 40}
	if err := c.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(c, xs, ys); acc < 0.95 {
		t.Errorf("blob accuracy %.3f < 0.95", acc)
	}
}

func TestNonLinearLearners(t *testing.T) {
	xs, ys := rings(400, 2)
	c := &AdaBoost{Rounds: 100}
	if err := c.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(c, xs, ys); acc < 0.9 {
		t.Errorf("ring accuracy %.3f < 0.9", acc)
	}
}

func TestValidationErrors(t *testing.T) {
	c := &AdaBoost{Rounds: 40}
	if err := c.Fit(nil, nil); err == nil {
		t.Error("empty training set accepted")
	}
	if err := c.Fit([][]float64{{1}}, []int{0, 1}); err == nil {
		t.Error("mismatched labels accepted")
	}
	if err := c.Fit([][]float64{{1}, {1, 2}}, []int{0, 1}); err == nil {
		t.Error("ragged features accepted")
	}
	if err := c.Fit([][]float64{{1}}, []int{3}); err == nil {
		t.Error("non-binary label accepted")
	}
}

func TestProbaBounds(t *testing.T) {
	xs, ys := blobs(100, 3)
	c := &AdaBoost{Rounds: 40}
	if err := c.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	for _, x := range xs {
		p := c.PredictProba(x)
		if p < 0 || p > 1 || math.IsNaN(p) {
			t.Errorf("probability %v outside [0,1]", p)
		}
	}
}

func TestUnfittedPredictIsNeutral(t *testing.T) {
	c := &AdaBoost{Rounds: 40}
	if p := c.PredictProba([]float64{1, 2}); p != 0.5 {
		t.Errorf("unfitted proba = %v, want 0.5", p)
	}
}

func TestAdaBoostMargins(t *testing.T) {
	xs, ys := blobs(100, 5)
	ab := &AdaBoost{Rounds: 30}
	if err := ab.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	// Confidently classified points should have proba far from 0.5.
	p := ab.PredictProba([]float64{-2, -2})
	if p > 0.2 {
		t.Errorf("deep class-0 point proba = %v", p)
	}
	p = ab.PredictProba([]float64{2, 2})
	if p < 0.8 {
		t.Errorf("deep class-1 point proba = %v", p)
	}
}
