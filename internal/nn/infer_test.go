package nn

import (
	"context"
	"math"
	"testing"

	"leapme/internal/mathx"
)

// inferTopologies are the network shapes the kernel suites sweep:
// the paper's serving topology plus degenerate and odd-width shapes
// that stress the ping-pong scratch and the batch strides.
var inferTopologies = []Config{
	{InDim: 101, Hidden: []int{128, 64}, Out: 2, Activation: ActReLU, Seed: 1},
	{InDim: 7, Hidden: []int{5}, Out: 2, Activation: ActReLU, Seed: 2},
	{InDim: 3, Hidden: nil, Out: 2, Activation: ActReLU, Seed: 3},
	{InDim: 13, Hidden: []int{17, 3, 9}, Out: 4, Activation: ActTanh, Seed: 4},
	{InDim: 32, Hidden: []int{64}, Out: 2, Activation: ActSigmoid, Seed: 5},
}

// randInputs returns n seeded random input vectors for cfg, with values
// on the scale standardised pair features actually take.
func randInputs(cfg Config, n int, seed int64) [][]float64 {
	rng := mathx.NewRand(seed)
	xs := make([][]float64, n)
	for i := range xs {
		x := make([]float64, cfg.InDim)
		for j := range x {
			x[j] = rng.NormFloat64() * 2
		}
		xs[i] = x
	}
	return xs
}

// scoreOne runs x alone through ForwardBatch — a one-input batch, the
// way a single pair is scored — and returns the class-1 probability.
func scoreOne(k *Kernel, x []float64) float64 {
	probs := make([]float64, k.OutDim())
	k.ForwardBatch(probs, x, 1, make([]float64, k.BatchScratchLen(1)))
	return probs[1]
}

// TestKernelBitIdentity is the exact-equivalence gate for the
// single-input serving path: for every topology and every input, scoring
// the input alone — a one-input ForwardBatch — must match the oracle
// forward pass byte for byte (compared through math.Float64bits, not a
// tolerance). If this fails, the serving layer's bit-reproducibility
// guarantee is broken — fix the kernel, never widen this to a tolerance.
func TestKernelBitIdentity(t *testing.T) {
	for _, cfg := range inferTopologies {
		net, err := New(cfg)
		if err != nil {
			t.Fatalf("New(%+v): %v", cfg, err)
		}
		k := NewKernel(net)
		if k.InDim() != cfg.InDim || k.OutDim() != cfg.Out {
			t.Fatalf("kernel dims %d→%d, want %d→%d", k.InDim(), k.OutDim(), cfg.InDim, cfg.Out)
		}
		for _, x := range randInputs(cfg, 50, cfg.Seed+100) {
			want := oracleForward(net, x)[1]
			if got := scoreOne(k, x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("cfg %+v: score %x, want %x (values %v vs %v)",
					cfg, math.Float64bits(got), math.Float64bits(want), got, want)
			}
		}
	}
}

// TestKernelIsNetworkView: NewKernel allocates and copies nothing — the
// kernel reads the network's own slabs, so training the network is
// visible through a kernel taken before it.
func TestKernelIsNetworkView(t *testing.T) {
	net, err := New(Config{InDim: 3, Hidden: []int{4}, Out: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = NewKernel(net) }); n != 0 {
		t.Errorf("NewKernel allocates %v times per call, want 0", n)
	}
	k := NewKernel(net)
	x := []float64{1, 2, 3}
	before := scoreOne(k, x)
	xs, ys := [][]float64{{1, 0, 0}, {0, 1, 0}}, []int{0, 1}
	cfg := TrainConfig{Schedule: []Phase{{Epochs: 3, LR: 0.1}}, Workers: 1}
	if _, err := fit(context.Background(), net, xs, ys, cfg); err != nil {
		t.Fatal(err)
	}
	after := scoreOne(k, x)
	if math.Float64bits(after) == math.Float64bits(before) {
		t.Fatal("training the network did not change its kernel's score")
	}
	if want := oracleForward(net, x)[1]; math.Float64bits(after) != math.Float64bits(want) {
		t.Fatalf("kernel score %v after training, want the network's %v", after, want)
	}
}

// batchSizes sweeps ForwardBatch across one, partial, exact and
// chunk-plus-tail batches of its fixed 8-input chunks.
var batchSizes = []int{1, 7, 8, 9, 15, 16, 17, 31, 32, 33}

// edgeInputs returns inputs that stress the lane arithmetic's sign and
// zero handling: all +0, all −0 (every unit with a negative bias then
// sits at an exact ReLU 0), a mix of ±0 and ordinary values, and random
// inputs each paired with its negation scaled by 1e6, which drives the
// units x leaves active to an exact ReLU 0.
func edgeInputs(cfg Config, seed int64) [][]float64 {
	negZero := math.Copysign(0, -1)
	zeros := make([]float64, cfg.InDim)
	negZeros := make([]float64, cfg.InDim)
	mixed := make([]float64, cfg.InDim)
	for i := range negZeros {
		negZeros[i] = negZero
	}
	rng := mathx.NewRand(seed)
	for i := range mixed {
		switch i % 3 {
		case 0:
			mixed[i] = negZero
		case 1:
			mixed[i] = 0
		default:
			mixed[i] = rng.NormFloat64()
		}
	}
	out := [][]float64{zeros, negZeros, mixed}
	for _, x := range randInputs(cfg, 4, seed+1) {
		neg := make([]float64, len(x))
		for i, v := range x {
			neg[i] = -v * 1e6
		}
		out = append(out, x, neg)
	}
	return out
}

// withBiases gives every layer of net seeded non-zero biases, so the
// act(acc + bias) step is exercised with real operands (fresh networks
// start with zero biases).
func withBiases(net *Network, seed int64) {
	rng := mathx.NewRand(seed)
	for i := range net.b {
		net.b[i] = rng.NormFloat64() * 0.1
	}
}

// TestKernelBatchDeterminism proves chunked batch execution changes
// nothing: ForwardBatch over any batch size — full 8-input chunks, a
// zero-padded partial tail, or both — is bit-identical to the oracle
// forward pass per input, with the AVX routines enabled and with the
// generic ones forced, on inputs that include ±0 and fully zeroed ReLU
// layers. The name keeps it inside `make test-determinism`, which
// re-runs it under GOMAXPROCS=1 and 4.
func TestKernelBatchDeterminism(t *testing.T) {
	saved := useAVX
	defer func() { useAVX = saved }()
	for _, avx := range []bool{false, true} {
		if avx && !saved {
			continue // no AVX on this CPU: the generic arm is the only arm
		}
		useAVX = avx
		for ci, cfg := range inferTopologies {
			net, err := New(cfg)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			withBiases(net, cfg.Seed+300)
			k := NewKernel(net)
			inputs := append(edgeInputs(cfg, cfg.Seed+400), randInputs(cfg, 33, cfg.Seed+200)...)
			want := make([][]float64, len(inputs))
			for i, x := range inputs {
				want[i] = oracleForward(net, x)
			}
			for _, n := range batchSizes {
				// Slide the batch window so every input lands in a full
				// chunk at some n and in a tail at another.
				for lo := 0; lo+n <= len(inputs); lo += 11 {
					xs := make([]float64, 0, n*k.InDim())
					for _, x := range inputs[lo : lo+n] {
						xs = append(xs, x...)
					}
					probs := make([]float64, n*k.OutDim())
					k.ForwardBatch(probs, xs, n, make([]float64, k.BatchScratchLen(n)))
					for i := 0; i < n; i++ {
						got := probs[i*k.OutDim() : (i+1)*k.OutDim()]
						for j, w := range want[lo+i] {
							if math.Float64bits(got[j]) != math.Float64bits(w) {
								t.Fatalf("avx=%v topology %d batch %d input %d: prob %d = %x, want %x",
									avx, ci, n, lo+i, j, math.Float64bits(got[j]), math.Float64bits(w))
							}
						}
					}
				}
			}
		}
	}
}

// TestKernelZeroAllocs pins the inference kernel at zero heap
// allocations per call — the hot-path contract the serving arenas build
// on. Wired into `go test ./...`, so a regression fails tier-1, not
// just a bench.
func TestKernelZeroAllocs(t *testing.T) {
	cfg := inferTopologies[0]
	net, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	k := NewKernel(net)
	x := randInputs(cfg, 1, 9)[0]
	const batch = gradChunkSize + 5 // one full chunk plus a tail
	xs := make([]float64, batch*k.InDim())
	for i := range xs {
		xs[i] = x[i%len(x)]
	}
	probs := make([]float64, batch*k.OutDim())
	scratch := make([]float64, k.BatchScratchLen(batch))
	for _, n := range []int{1, batch} {
		if a := testing.AllocsPerRun(100, func() {
			k.ForwardBatch(probs[:n*k.OutDim()], xs[:n*k.InDim()], n, scratch)
		}); a != 0 {
			t.Errorf("Kernel.ForwardBatch of %d inputs allocates %v times per call, want 0", n, a)
		}
	}
}
