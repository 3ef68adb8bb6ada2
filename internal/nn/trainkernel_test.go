package nn

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// tkDataset builds a deterministic synthetic training set both as row
// slices (for the chunkedFit oracle) and as a flat slab (for
// TrainKernel.Fit).
func tkDataset(n, dim, classes int, seed int64) ([][]float64, []float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	flat := make([]float64, n*dim)
	ys := make([]int, n)
	for i := 0; i < n; i++ {
		row := flat[i*dim : (i+1)*dim]
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		// Make the labels weakly learnable so losses stay finite and
		// training actually moves the weights.
		if row[0]+0.3*row[dim-1] > 0 {
			ys[i] = 1
		} else {
			ys[i] = i % classes
		}
		rows[i] = row
	}
	return rows, flat, ys
}

func mustNet(t *testing.T, cfg Config) *Network {
	t.Helper()
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func netBytes(t *testing.T, n *Network) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := n.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func tkSchedule() []Phase {
	return []Phase{{Epochs: 3, LR: 1e-3}, {Epochs: 2, LR: 1e-4}}
}

// trainOracle trains a fresh network through the chunkedFit reference
// and returns its serialized bytes plus the final loss.
func trainOracle(t *testing.T, cfg Config, tc TrainConfig, rows [][]float64, ys []int) ([]byte, float64) {
	t.Helper()
	net := mustNet(t, cfg)
	loss, err := chunkedFit(context.Background(), net, rows, ys, tc)
	if err != nil {
		t.Fatalf("chunkedFit: %v", err)
	}
	return netBytes(t, net), loss
}

// trainKernel trains a fresh network through TrainKernel.Fit and returns
// its serialized bytes plus the final loss.
func trainKernel(t *testing.T, cfg Config, tc TrainConfig, flat []float64, ys []int) ([]byte, float64) {
	t.Helper()
	net := mustNet(t, cfg)
	k, err := NewTrainKernel(net, tc)
	if err != nil {
		t.Fatal(err)
	}
	loss, err := k.Fit(context.Background(), flat, ys)
	if err != nil {
		t.Fatalf("kernel Fit: %v", err)
	}
	return netBytes(t, net), loss
}

// TestTrainKernelMatchesChunkedFit pins the kernel's arithmetic: for
// every worker count, 0 (all CPUs) included, TrainKernel trains
// byte-identical weights and bit-equal losses to the chunkedFit
// reference, across topologies, activations, batch sizes and
// zero-padded partial chunks — with the AVX routines and with the
// generic ones forced, the only arm on arm64 and pre-AVX CPUs. Odd
// hidden widths run the single-row forward routine, and a network of
// more than stepSpan parameters splits the optimizer step into ranges,
// one of them straddling the weight/bias boundary.
func TestTrainKernelMatchesChunkedFit(t *testing.T) {
	saved := useAVX
	defer func() { useAVX = saved }()
	rows, flat, ys := tkDataset(173, 13, 3, 41)

	cases := []struct {
		name string
		cfg  Config
		tc   TrainConfig
	}{
		{
			name: "relu-adam",
			cfg:  Config{InDim: 13, Hidden: []int{16, 8}, Out: 3, Activation: ActReLU, Seed: 7},
			tc:   TrainConfig{Schedule: tkSchedule(), BatchSize: 32, Seed: 11},
		},
		{
			name: "sigmoid-adam",
			cfg:  Config{InDim: 13, Hidden: []int{10}, Out: 3, Activation: ActSigmoid, Seed: 9},
			tc:   TrainConfig{Schedule: tkSchedule(), BatchSize: 16, Seed: 5},
		},
		{
			name: "tanh-adam",
			cfg:  Config{InDim: 13, Hidden: []int{12}, Out: 3, Activation: ActTanh, Seed: 3},
			tc:   TrainConfig{Schedule: tkSchedule(), BatchSize: 24, Seed: 2},
		},
		{
			name: "no-hidden-adam",
			cfg:  Config{InDim: 13, Out: 3, Activation: ActReLU, Seed: 1},
			tc:   TrainConfig{Schedule: []Phase{{Epochs: 4, LR: 1e-2}}, BatchSize: 32, Seed: 8},
		},
		{
			name: "uneven-batch",
			cfg:  Config{InDim: 13, Hidden: []int{8}, Out: 3, Activation: ActReLU, Seed: 4},
			tc:   TrainConfig{Schedule: tkSchedule(), BatchSize: 19, Seed: 6},
		},
		{
			name: "relu-odd-widths",
			cfg:  Config{InDim: 13, Hidden: []int{9, 5}, Out: 3, Activation: ActReLU, Seed: 10},
			tc:   TrainConfig{Schedule: tkSchedule(), BatchSize: 32, Seed: 12},
		},
		{
			name: "relu-ranged-step",
			cfg:  Config{InDim: 13, Hidden: []int{64, 32}, Out: 3, Activation: ActReLU, Seed: 13},
			tc:   TrainConfig{Schedule: tkSchedule(), BatchSize: 32, Seed: 14},
		},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			ref, refLoss := trainOracle(t, tt.cfg, tt.tc, rows, ys)
			for _, avx := range []bool{false, true} {
				if avx && !saved {
					continue // no AVX on this CPU: the generic arm is the only arm
				}
				useAVX = avx
				for _, w := range []int{0, 1, 2, 3, 8} {
					kTC := tt.tc
					kTC.Workers = w
					got, gotLoss := trainKernel(t, tt.cfg, kTC, flat, ys)
					if !bytes.Equal(got, ref) {
						t.Fatalf("avx=%v workers=%d: kernel-trained model bytes differ from chunkedFit", avx, w)
					}
					if math.Float64bits(gotLoss) != math.Float64bits(refLoss) {
						t.Fatalf("avx=%v workers=%d: final loss %x, want %x", avx, w,
							math.Float64bits(gotLoss), math.Float64bits(refLoss))
					}
				}
			}
		})
	}
}

// TestTrainKernelDeterminismAcrossWorkerCounts is the determinism gate:
// kernel training is worker-count independent down to the byte.
func TestTrainKernelDeterminismAcrossWorkerCounts(t *testing.T) {
	_, flat, ys := tkDataset(151, 9, 2, 17)
	cfg := Config{InDim: 9, Hidden: []int{16, 8}, Out: 2, Activation: ActReLU, Seed: 12}
	base := TrainConfig{Schedule: tkSchedule(), BatchSize: 32, Seed: 3}

	mk := func(w int) []byte {
		tc := base
		tc.Workers = w
		b, _ := trainKernel(t, cfg, tc, flat, ys)
		return b
	}
	ref := mk(1)
	for _, w := range []int{0, 2, 4, 8, -1} {
		if !bytes.Equal(mk(w), ref) {
			t.Fatalf("workers=%d: trained model bytes differ from workers=1", w)
		}
	}
}

// TestTrainKernelDivergenceRecoveryMatchesFit pins the rollback path: an
// absurdly low explode threshold forces phase retries through to the
// ErrDiverged exit, and the kernel must restore and fail exactly as the
// chunkedFit reference does.
func TestTrainKernelDivergenceRecoveryMatchesFit(t *testing.T) {
	rows, flat, ys := tkDataset(64, 7, 2, 23)
	cfg := Config{InDim: 7, Hidden: []int{8}, Out: 2, Activation: ActReLU, Seed: 2}
	tc := TrainConfig{
		Schedule:         []Phase{{Epochs: 3, LR: 1e-3}},
		BatchSize:        16,
		Seed:             9,
		Workers:          1,
		MaxPhaseRetries:  2,
		ExplodeThreshold: 1e-3, // trips immediately: initial weights exceed it
	}

	refNet := mustNet(t, cfg)
	var refRecov []string
	refTC := tc
	refTC.OnRecovery = func(phase, retry int, lr float64, reason string) {
		refRecov = append(refRecov, reason)
	}
	_, refErr := chunkedFit(context.Background(), refNet, rows, ys, refTC)
	if !errors.Is(refErr, ErrDiverged) {
		t.Fatalf("chunkedFit err = %v, want ErrDiverged", refErr)
	}

	kNet := mustNet(t, cfg)
	var kRecov []string
	kTC := tc
	kTC.OnRecovery = func(phase, retry int, lr float64, reason string) {
		kRecov = append(kRecov, reason)
	}
	k, err := NewTrainKernel(kNet, kTC)
	if err != nil {
		t.Fatal(err)
	}
	_, kErr := k.Fit(context.Background(), flat, ys)
	if !errors.Is(kErr, ErrDiverged) {
		t.Fatalf("kernel Fit err = %v, want ErrDiverged", kErr)
	}
	if kErr.Error() != refErr.Error() {
		t.Fatalf("error text diverges:\nkernel: %s\noracle: %s", kErr, refErr)
	}
	if len(kRecov) != len(refRecov) {
		t.Fatalf("recovery counts differ: %d vs %d", len(kRecov), len(refRecov))
	}
	for i := range kRecov {
		if kRecov[i] != refRecov[i] {
			t.Fatalf("recovery %d reason %q, want %q", i, kRecov[i], refRecov[i])
		}
	}
	if !bytes.Equal(netBytes(t, kNet), netBytes(t, refNet)) {
		t.Fatal("restored weights differ after divergence failure")
	}
}

// TestTrainKernelCancellationWritesBack: a deterministic mid-training
// cancel must leave the kernel-trained network byte-identical to the
// chunkedFit reference cancelled at the same point.
func TestTrainKernelCancellationWritesBack(t *testing.T) {
	rows, flat, ys := tkDataset(96, 7, 2, 31)
	cfg := Config{InDim: 7, Hidden: []int{8}, Out: 2, Activation: ActReLU, Seed: 6}
	mkTC := func(cancel context.CancelFunc) TrainConfig {
		return TrainConfig{
			Schedule:  []Phase{{Epochs: 10, LR: 1e-3}},
			BatchSize: 32,
			Seed:      4,
			Workers:   2,
			OnEpoch: func(epoch int, loss float64) {
				if epoch == 2 {
					cancel()
				}
			},
		}
	}

	refCtx, refCancel := context.WithCancel(context.Background())
	defer refCancel()
	refNet := mustNet(t, cfg)
	_, refErr := chunkedFit(refCtx, refNet, rows, ys, mkTC(refCancel))
	if !errors.Is(refErr, context.Canceled) {
		t.Fatalf("chunkedFit err = %v, want context.Canceled", refErr)
	}

	kCtx, kCancel := context.WithCancel(context.Background())
	defer kCancel()
	kNet := mustNet(t, cfg)
	k, err := NewTrainKernel(kNet, mkTC(kCancel))
	if err != nil {
		t.Fatal(err)
	}
	_, kErr := k.Fit(kCtx, flat, ys)
	if !errors.Is(kErr, context.Canceled) {
		t.Fatalf("kernel Fit err = %v, want context.Canceled", kErr)
	}
	if !bytes.Equal(netBytes(t, kNet), netBytes(t, refNet)) {
		t.Fatal("cancelled kernel weights differ from cancelled chunkedFit")
	}
}

func TestTrainKernelValidation(t *testing.T) {
	cfg := Config{InDim: 4, Hidden: []int{4}, Out: 2, Activation: ActReLU, Seed: 1}
	k, err := NewTrainKernel(mustNet(t, cfg), TrainConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Fit(context.Background(), nil, nil); err == nil {
		t.Fatal("expected error for empty training set")
	}
	if _, err := k.Fit(context.Background(), make([]float64, 7), []int{0, 1}); err == nil {
		t.Fatal("expected error for misaligned flat set")
	}
	bad := make([]float64, 8)
	bad[5] = math.NaN()
	if _, err := k.Fit(context.Background(), bad, []int{0, 1}); err == nil {
		t.Fatal("expected error for non-finite feature")
	}
	if _, err := k.Fit(context.Background(), make([]float64, 8), []int{0, 2}); err == nil {
		t.Fatal("expected error for out-of-range label")
	}
}

// TestTrainKernelEpochAllocs is the dynamic half of the hotalloc gate:
// the warm epoch inner loop — runBatch dispatch, chunkGrads fused
// passes, the optimizer step's beginStep and stepRange ranges, the
// batch-loss tree — performs zero heap allocations, serial and with the
// worker pool alike. The paper's hidden widths give the network more
// than stepSpan parameters, so at two workers the step ranges run on
// the pool.
func TestTrainKernelEpochAllocs(t *testing.T) {
	_, flat, ys := tkDataset(64, 9, 2, 13)
	cfg := Config{InDim: 9, Hidden: []int{128, 64}, Out: 2, Activation: ActReLU, Seed: 5}

	for _, workers := range []int{1, 2} {
		k, err := NewTrainKernel(mustNet(t, cfg), TrainConfig{
			Schedule:  []Phase{{Epochs: 1, LR: 1e-3}},
			BatchSize: 32,
			Seed:      1,
			Workers:   workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if workers > 1 {
			k.startWorkers()
			defer k.stopWorkers()
		}
		idx := make([]int, 32) // one full batch: Fit never passes more than BatchSize
		for i := range idx {
			idx[i] = i
		}
		k.runBatch(flat, ys, idx, 1e-3) // warm
		allocs := testing.AllocsPerRun(50, func() {
			k.runBatch(flat, ys, idx, 1e-3)
		})
		if allocs != 0 {
			t.Fatalf("workers=%d: warm runBatch allocated %.1f times per run, want 0", workers, allocs)
		}
		if k.ranges < 2 {
			t.Fatalf("%d optimizer-step ranges, want several", k.ranges)
		}
		allocs = testing.AllocsPerRun(50, func() {
			k.chunkGrads(0)
			k.accumLayerGrads(k.slots[0], 0, k.slots[0].inEM, 8)
			k.beginStep(4, 1.0/32, 1e-3)
			k.stepRange(k.ranges - 1)
			k.run(true, k.ranges)
			k.batchLoss(4)
		})
		if allocs != 0 {
			t.Fatalf("workers=%d: warm chunkGrads/beginStep/stepRange/batchLoss allocated %.1f times per run, want 0", workers, allocs)
		}
	}
}

// TestTrainKernelGeneralTreeReduce exercises the nChunks > 4 generic
// reduction (batch sizes beyond 32) against the chunkedFit reference,
// with the AVX routines and with the generic ones forced, over one
// optimizer-step range and (hidden {64, 32}) over two.
func TestTrainKernelGeneralTreeReduce(t *testing.T) {
	saved := useAVX
	defer func() { useAVX = saved }()
	rows, flat, ys := tkDataset(200, 6, 2, 29)
	tc := TrainConfig{Schedule: []Phase{{Epochs: 2, LR: 1e-3}}, BatchSize: 96, Seed: 7, Workers: 1}
	for _, hidden := range [][]int{{8}, {64, 32}} {
		cfg := Config{InDim: 6, Hidden: hidden, Out: 2, Activation: ActReLU, Seed: 3}
		ref, _ := trainOracle(t, cfg, tc, rows, ys)
		for _, avx := range []bool{false, true} {
			if avx && !saved {
				continue // no AVX on this CPU: the generic arm is the only arm
			}
			useAVX = avx
			for _, w := range []int{0, 1, 4} {
				kTC := tc
				kTC.Workers = w
				got, _ := trainKernel(t, cfg, kTC, flat, ys)
				if !bytes.Equal(got, ref) {
					t.Fatalf("hidden=%v avx=%v workers=%d: bytes differ with 12-chunk batches", hidden, avx, w)
				}
			}
		}
	}
}
