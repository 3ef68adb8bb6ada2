package nn

import (
	"bytes"
	"context"
	"math"
	"testing"

	"leapme/internal/mathx"
)

// xorData returns the XOR problem with jittered replicas — the classic
// non-linearly-separable sanity check for an MLP implementation.
func xorData(n int, seed int64) ([][]float64, []int) {
	rng := mathx.NewRand(seed)
	base := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	labels := []int{0, 1, 1, 0}
	var xs [][]float64
	var ys []int
	for i := 0; i < n; i++ {
		k := i % 4
		xs = append(xs, []float64{
			base[k][0] + rng.NormFloat64()*0.05,
			base[k][1] + rng.NormFloat64()*0.05,
		})
		ys = append(ys, labels[k])
	}
	return xs, ys
}

// fit packs rows into one flat slab, the layout core.Train builds, and
// trains n on it through a TrainKernel.
func fit(ctx context.Context, n *Network, xs [][]float64, ys []int, cfg TrainConfig) (float64, error) {
	k, err := NewTrainKernel(n, cfg)
	if err != nil {
		return 0, err
	}
	var flat []float64
	for _, x := range xs {
		flat = append(flat, x...)
	}
	return k.Fit(ctx, flat, ys)
}

func TestFitLearnsXOR(t *testing.T) {
	xs, ys := xorData(200, 1)
	n, _ := New(Config{InDim: 2, Hidden: []int{16, 8}, Out: 2, Seed: 1})
	cfg := TrainConfig{Seed: 1}
	cfg.Schedule = []Phase{{Epochs: 60, LR: 5e-3}, {Epochs: 20, LR: 1e-3}}
	loss, err := fit(context.Background(), n, xs, ys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if loss > 0.2 {
		t.Errorf("final XOR loss = %v, want < 0.2", loss)
	}
	correct := 0
	for i, x := range xs {
		if oracleClassify(n, x) == ys[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(xs)); acc < 0.95 {
		t.Errorf("XOR accuracy = %v, want ≥ 0.95", acc)
	}
}

func TestFitValidation(t *testing.T) {
	n, _ := New(Config{InDim: 2, Out: 2, Seed: 1})
	if _, err := fit(context.Background(), n, nil, nil, TrainConfig{Seed: 1}); err == nil {
		t.Error("empty training set accepted")
	}
	if _, err := fit(context.Background(), n, [][]float64{{1, 2}}, []int{0, 1}, TrainConfig{Seed: 1}); err == nil {
		t.Error("mismatched labels accepted")
	}
	if _, err := fit(context.Background(), n, [][]float64{{1}}, []int{0}, TrainConfig{Seed: 1}); err == nil {
		t.Error("wrong input dim accepted")
	}
	if _, err := fit(context.Background(), n, [][]float64{{1, 2}}, []int{5}, TrainConfig{Seed: 1}); err == nil {
		t.Error("out-of-range label accepted")
	}
}

func TestFitDeterministic(t *testing.T) {
	xs, ys := xorData(60, 3)
	run := func() []float64 {
		n, _ := New(Config{InDim: 2, Hidden: []int{8}, Out: 2, Seed: 3})
		cfg := TrainConfig{Seed: 3}
		cfg.Schedule = []Phase{{Epochs: 5, LR: 1e-3}}
		if _, err := fit(context.Background(), n, xs, ys, cfg); err != nil {
			t.Fatal(err)
		}
		return oracleForward(n, xs[0])
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("training is not deterministic")
		}
	}
}

func TestOnEpochCallback(t *testing.T) {
	xs, ys := xorData(40, 4)
	n, _ := New(Config{InDim: 2, Hidden: []int{4}, Out: 2, Seed: 4})
	var epochs []int
	var losses []float64
	cfg := TrainConfig{Seed: 4}
	cfg.Schedule = []Phase{{Epochs: 3, LR: 1e-3}, {Epochs: 2, LR: 1e-4}}
	cfg.OnEpoch = func(e int, l float64) {
		epochs = append(epochs, e)
		losses = append(losses, l)
	}
	if _, err := fit(context.Background(), n, xs, ys, cfg); err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 5 {
		t.Fatalf("callback fired %d times, want 5", len(epochs))
	}
	for i, e := range epochs {
		if e != i {
			t.Errorf("epoch indices = %v", epochs)
			break
		}
	}
	for _, l := range losses {
		if math.IsNaN(l) || l < 0 {
			t.Errorf("bad loss %v", l)
		}
	}
}

func TestPaperSchedule(t *testing.T) {
	s := PaperSchedule()
	if len(s) != 3 || s[0].Epochs != 10 || s[0].LR != 1e-3 ||
		s[1].Epochs != 5 || s[1].LR != 1e-4 || s[2].Epochs != 5 || s[2].LR != 1e-5 {
		t.Errorf("PaperSchedule = %+v", s)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	xs, ys := xorData(80, 5)
	n, _ := New(Config{InDim: 2, Hidden: []int{8, 4}, Out: 2, Seed: 5})
	cfg := TrainConfig{Seed: 5}
	cfg.Schedule = []Phase{{Epochs: 10, LR: 1e-3}}
	if _, err := fit(context.Background(), n, xs, ys, cfg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := n.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m.InDim() != n.InDim() || m.OutDim() != n.OutDim() {
		t.Fatal("round trip changed dims")
	}
	for _, x := range xs[:10] {
		pa, pb := oracleForward(n, x), oracleForward(m, x)
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatal("round trip changed predictions")
			}
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Error("bad magic accepted")
	}
	var buf bytes.Buffer
	n, _ := New(Config{InDim: 2, Out: 2, Seed: 1})
	n.WriteTo(&buf)
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := Read(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated model accepted")
	}
}
