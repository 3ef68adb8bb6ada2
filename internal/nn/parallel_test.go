package nn

import (
	"bytes"
	"context"
	"math"
	"testing"

	"leapme/internal/mathx"
)

// trainToy trains a fresh network on a small synthetic two-class problem
// with the given worker setting and returns the serialized weights.
func trainToy(t *testing.T, workers int) ([]byte, *Network) {
	t.Helper()
	const dim = 12
	rng := mathx.NewRand(99)
	var xs [][]float64
	var ys []int
	for i := 0; i < 200; i++ {
		x := make([]float64, dim)
		cls := i % 2
		for j := range x {
			x[j] = rng.NormFloat64()
			if cls == 1 {
				x[j] += 1.5
			}
		}
		xs = append(xs, x)
		ys = append(ys, cls)
	}
	n, err := New(Config{InDim: dim, Hidden: []int{16, 8}, Out: 2, Activation: ActReLU, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cfg := TrainConfig{Seed: 123}
	cfg.Schedule = []Phase{{Epochs: 4, LR: 1e-3}, {Epochs: 2, LR: 1e-4}}
	cfg.Workers = workers
	if _, err := fit(context.Background(), n, xs, ys, cfg); err != nil {
		t.Fatalf("Fit(workers=%d): %v", workers, err)
	}
	var buf bytes.Buffer
	if _, err := n.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), n
}

// TestFitDeterminismAcrossWorkerCounts is the gate for the parallel
// trainer: every worker count, 0 (all CPUs) included, must produce
// bit-identical weights.
func TestFitDeterminismAcrossWorkerCounts(t *testing.T) {
	ref, refNet := trainToy(t, 1)
	for _, w := range []int{0, 2, 3, 8} {
		got, gotNet := trainToy(t, w)
		if !bytes.Equal(ref, got) {
			t.Fatalf("workers=%d produced different weight bytes than workers=1", w)
		}
		// Scores too: bit-compare the positive-class probability.
		x := make([]float64, refNet.InDim())
		for i := range x {
			x[i] = float64(i) * 0.1
		}
		a, b := oracleForward(refNet, x), oracleForward(gotNet, x)
		if math.Float64bits(a[1]) != math.Float64bits(b[1]) {
			t.Fatalf("workers=%d: score %x, want %x", w, b[1], a[1])
		}
	}
}

// TestFitParallelConverges checks the multi-worker trainer actually
// learns, i.e. it is a correct gradient computation, not just a
// deterministic one.
func TestFitParallelConverges(t *testing.T) {
	_, n := trainToy(t, 4)
	// The two clusters are separated by +1.5 per dimension; a trained net
	// must classify their centroids correctly.
	neg := make([]float64, n.InDim())
	pos := make([]float64, n.InDim())
	for i := range pos {
		pos[i] = 1.5
	}
	pn, pp := oracleForward(n, neg), oracleForward(n, pos)
	if pn[0] < 0.5 {
		t.Errorf("negative centroid scored class0=%v, want > 0.5", pn[0])
	}
	if pp[1] < 0.5 {
		t.Errorf("positive centroid scored class1=%v, want > 0.5", pp[1])
	}
}

func TestFitParallelCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n, err := New(Config{InDim: 4, Hidden: []int{4}, Out: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	xs := [][]float64{{1, 2, 3, 4}, {4, 3, 2, 1}}
	ys := []int{0, 1}
	cfg := TrainConfig{Seed: 1}
	cfg.Workers = 4
	if _, err := fit(ctx, n, xs, ys, cfg); err != context.Canceled {
		t.Errorf("Fit on cancelled ctx: err = %v, want context.Canceled", err)
	}
}
