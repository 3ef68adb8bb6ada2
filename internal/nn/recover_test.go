package nn

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

// TestFitRecoversFromDivergence injects divergence through an absurd
// phase learning rate: the first attempt explodes, the rollback restarts
// the phase from the checkpoint with LR·LRBackoff — a sane rate — and
// training still converges.
func TestFitRecoversFromDivergence(t *testing.T) {
	xs, ys := xorData(200, 6)
	n, _ := New(Config{InDim: 2, Hidden: []int{16, 8}, Out: 2, Seed: 6})
	type recovery struct {
		phase, retry int
		lr           float64
		reason       string
	}
	var recoveries []recovery
	cfg := TrainConfig{
		// 1e12 diverges within the first epoch; one backoff lands at
		// 5e-3, which learns XOR (cf. TestFitLearnsXOR).
		Schedule:  []Phase{{Epochs: 60, LR: 1e12}, {Epochs: 20, LR: 1e-3}},
		BatchSize: 32,
		Seed:      6,
		LRBackoff: 5e-15,
		OnRecovery: func(phase, retry int, lr float64, reason string) {
			recoveries = append(recoveries, recovery{phase, retry, lr, reason})
		},
	}
	loss, err := fit(context.Background(), n, xs, ys, cfg)
	if err != nil {
		t.Fatalf("Fit did not recover: %v", err)
	}
	if len(recoveries) == 0 {
		t.Fatal("no recovery recorded despite LR 1e12")
	}
	r := recoveries[0]
	if r.phase != 0 || r.retry != 1 {
		t.Errorf("first recovery = phase %d retry %d, want phase 0 retry 1", r.phase, r.retry)
	}
	if r.lr >= 1e12 {
		t.Errorf("recovery did not back off the LR: %v", r.lr)
	}
	if !strings.Contains(r.reason, "loss") && !strings.Contains(r.reason, "exploding") {
		t.Errorf("unrecognised divergence reason %q", r.reason)
	}
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("recovered training ended with non-finite loss %v", loss)
	}
	correct := 0
	for i, x := range xs {
		if oracleClassify(n, x) == ys[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(xs)); acc < 0.9 {
		t.Errorf("post-recovery XOR accuracy = %v, want ≥ 0.9", acc)
	}
}

// TestFitDivergenceBudget exhausts the retry budget: a backoff factor
// close to 1 keeps the LR absurd on every retry, so Fit must give up
// with ErrDiverged instead of looping.
func TestFitDivergenceBudget(t *testing.T) {
	xs, ys := xorData(60, 7)
	n, _ := New(Config{InDim: 2, Hidden: []int{8}, Out: 2, Seed: 7})
	cfg := TrainConfig{
		Schedule:        []Phase{{Epochs: 5, LR: 1e12}},
		BatchSize:       16,
		Seed:            7,
		LRBackoff:       0.9,
		MaxPhaseRetries: 2,
	}
	retries := 0
	cfg.OnRecovery = func(phase, retry int, lr float64, reason string) { retries++ }
	_, err := fit(context.Background(), n, xs, ys, cfg)
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("err = %v, want ErrDiverged", err)
	}
	if retries != cfg.MaxPhaseRetries {
		t.Errorf("observed %d recoveries before giving up, want %d", retries, cfg.MaxPhaseRetries)
	}
	// The network must be left at the phase checkpoint, not the exploded
	// state: all parameters finite and of sane magnitude.
	if m := maxAbsWeight(n); math.IsNaN(m) || m > 1e3 {
		t.Errorf("network left with max |param| = %v after ErrDiverged rollback", m)
	}
}

// TestFitRejectsNonFiniteFeatures: non-finite inputs are an input error
// reported up front, not something the divergence detector should have
// to chase after the fact.
func TestFitRejectsNonFiniteFeatures(t *testing.T) {
	n, _ := New(Config{InDim: 2, Out: 2, Seed: 1})
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := fit(context.Background(), n, [][]float64{{1, bad}}, []int{0}, TrainConfig{Seed: 1}); err == nil {
			t.Errorf("non-finite feature %v accepted", bad)
		}
	}
}

// TestFitCancellation: a cancelled context stops training between
// mini-batches and surfaces ctx.Err().
func TestFitCancellation(t *testing.T) {
	xs, ys := xorData(200, 8)
	n, _ := New(Config{InDim: 2, Hidden: []int{16, 8}, Out: 2, Seed: 8})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fit(ctx, n, xs, ys, TrainConfig{Seed: 8}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel2()
	cfg := TrainConfig{Seed: 8}
	cfg.Schedule = []Phase{{Epochs: 100000, LR: 1e-3}}
	start := time.Now()
	_, err := fit(ctx2, n, xs, ys, cfg)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("deadline honoured only after %v", elapsed)
	}
}

// TestSnapshotRestoreRoundTrip pins the checkpoint mechanics the
// divergence recovery depends on.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	n, _ := New(Config{InDim: 3, Hidden: []int{4}, Out: 2, Seed: 9})
	before := oracleForward(n, []float64{1, 2, 3})
	k, err := NewTrainKernel(n, TrainConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	k.snapshot()

	// Perturb every parameter, then restore.
	xs, ys := []float64{1, 0, 0, 0, 1, 0}, []int{0, 1}
	for i := 0; i < 3; i++ {
		k.runBatch(xs, ys, []int{0, 1}, 0.1)
	}
	changed := oracleForward(n, []float64{1, 2, 3})
	same := true
	for i := range before {
		if before[i] != changed[i] {
			same = false
		}
	}
	if same {
		t.Fatal("training did not change the network; restore test is vacuous")
	}

	k.restore()
	after := oracleForward(n, []float64{1, 2, 3})
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("restore did not reproduce snapshot: %v vs %v", before, after)
		}
	}
}
