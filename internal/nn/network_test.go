package nn

import (
	"math"
	"testing"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{InDim: 0, Out: 2}); err == nil {
		t.Error("zero input dim accepted")
	}
	if _, err := New(Config{InDim: 3, Out: 0}); err == nil {
		t.Error("zero output dim accepted")
	}
	if _, err := New(Config{InDim: 3, Hidden: []int{-1}, Out: 2}); err == nil {
		t.Error("negative hidden width accepted")
	}
}

func TestForwardIsDistribution(t *testing.T) {
	n, _ := New(Config{InDim: 4, Hidden: []int{8}, Out: 3, Seed: 1})
	k := NewKernel(n)
	xs := []float64{0.1, -0.2, 0.3, 0.9, 5, -3, 0, 1}
	probs := make([]float64, 2*k.OutDim())
	k.ForwardBatch(probs, xs, 2, make([]float64, k.BatchScratchLen(2)))
	for row := 0; row < 2; row++ {
		var sum float64
		for _, v := range probs[row*k.OutDim() : (row+1)*k.OutDim()] {
			if v < 0 || v > 1 {
				t.Errorf("probability %v outside [0,1]", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("row %d probabilities sum to %v", row, sum)
		}
	}
}

// TestForwardDimCheck: the kernel's forward pass rejects inputs of the
// wrong dimension, for one input and for a batch.
func TestForwardDimCheck(t *testing.T) {
	n, _ := New(Config{InDim: 4, Out: 2, Seed: 1})
	k := NewKernel(n)
	scratch := make([]float64, k.BatchScratchLen(3))
	for name, fn := range map[string]func(){
		"one input": func() { k.ForwardBatch(make([]float64, 2), []float64{1, 2}, 1, scratch) },
		"batch":     func() { k.ForwardBatch(make([]float64, 6), make([]float64, 6), 3, scratch) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a wrong input dim", name)
				}
			}()
			fn()
		}()
	}
}

func TestSoftmaxStability(t *testing.T) {
	dst := make([]float64, 3)
	softmax(dst, []float64{1000, 1000, 1000})
	for _, v := range dst {
		if math.IsNaN(v) || math.Abs(v-1.0/3) > 1e-9 {
			t.Errorf("softmax of large equal logits = %v", dst)
		}
	}
	softmax(dst, []float64{-1000, 0, 1000})
	if dst[2] < 0.999 {
		t.Errorf("softmax should saturate: %v", dst)
	}
}

// TestGradientCheck verifies backpropagation against central-difference
// numerical gradients on every parameter of a small network.
func TestGradientCheck(t *testing.T) {
	n, _ := New(Config{InDim: 3, Hidden: []int{5, 4}, Out: 2, Activation: ActTanh, Seed: 3})
	x := []float64{0.3, -0.7, 0.2}
	label := 1

	loss := func() float64 {
		return -math.Log(math.Max(oracleForward(n, x)[label], 1e-300))
	}

	// Analytic gradients: the training kernel's for a one-example batch.
	// Its gradient slabs share the network's layout, so parameter i of a
	// slab has gradient i.
	k := batchGrads(t, n, [][]float64{x}, []int{label})

	const eps = 1e-6
	for _, p := range []struct {
		name         string
		params, grad []float64
	}{{"weight", n.w, k.g[:len(n.w)]}, {"bias", n.b, k.g[len(n.w):]}} {
		for i, orig := range p.params {
			p.params[i] = orig + eps
			up := loss()
			p.params[i] = orig - eps
			down := loss()
			p.params[i] = orig
			num := (up - down) / (2 * eps)
			if ana := p.grad[i]; math.Abs(num-ana) > 1e-5*(1+math.Abs(num)) {
				t.Fatalf("%s %d: numeric %g vs analytic %g", p.name, i, num, ana)
			}
		}
	}
}

// TestMulDerivMatchesDerivFromOutput pins mulDeriv, whose ReLU arm
// selects its factor on the bits, to derivFromOutput bit for bit, with
// every edge value as an output and as a delta.
func TestMulDerivMatchesDerivFromOutput(t *testing.T) {
	for _, a := range []Activation{ActReLU, ActSigmoid, ActTanh, ActIdentity} {
		for _, y := range specialVals {
			d := append([]float64(nil), specialVals...)
			ys := make([]float64, len(d))
			want := make([]float64, len(d))
			for i, v := range d {
				ys[i] = y
				want[i] = v * a.derivFromOutput(y)
			}
			a.mulDeriv(d, ys)
			bitsEqual(t, a.String(), d, want)
		}
	}
}

func TestActivations(t *testing.T) {
	if ActReLU.apply(-1) != 0 || ActReLU.apply(2) != 2 {
		t.Error("ReLU broken")
	}
	if math.Abs(ActSigmoid.apply(0)-0.5) > 1e-12 {
		t.Error("sigmoid(0) != 0.5")
	}
	if ActTanh.apply(0) != 0 {
		t.Error("tanh(0) != 0")
	}
	if ActIdentity.apply(3.14) != 3.14 {
		t.Error("identity broken")
	}
	// derivFromOutput consistency for sigmoid: σ'(0) = 0.25.
	if math.Abs(ActSigmoid.derivFromOutput(0.5)-0.25) > 1e-12 {
		t.Error("sigmoid derivative broken")
	}
	for _, a := range []Activation{ActReLU, ActSigmoid, ActTanh, ActIdentity} {
		if a.String() == "invalid" {
			t.Errorf("activation %d has no name", a)
		}
	}
}

func TestDeterministicInit(t *testing.T) {
	a, _ := New(Config{InDim: 5, Hidden: []int{7}, Out: 2, Seed: 9})
	b, _ := New(Config{InDim: 5, Hidden: []int{7}, Out: 2, Seed: 9})
	for i := range a.w {
		if a.w[i] != b.w[i] {
			t.Fatal("same seed produced different weights")
		}
	}
	c, _ := New(Config{InDim: 5, Hidden: []int{7}, Out: 2, Seed: 10})
	same := true
	for i := range a.w {
		if a.w[i] != c.w[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical weights")
	}
	// Glorot uniform: every weight within ±sqrt(6/(fanIn+fanOut)) of its
	// layer, and biases start at zero.
	for _, l := range a.layers {
		limit := math.Sqrt(6 / float64(l.rows+l.cols))
		for _, w := range a.w[l.woff : l.woff+l.rows*l.cols] {
			if math.Abs(w) > limit {
				t.Fatalf("weight %v exceeds glorot limit %v", w, limit)
			}
		}
	}
	for _, v := range a.b {
		if v != 0 {
			t.Fatalf("initial bias %v, want 0", v)
		}
	}
}

// batchGrads returns a training kernel over n whose gradient slab holds
// the batch-averaged gradient of (xs, ys), a batch of at most one chunk,
// with n's parameters left where the gradient was taken: the optimizer
// step that reduces the gradient also moves them, so they are restored.
func batchGrads(t *testing.T, n *Network, xs [][]float64, ys []int) *TrainKernel {
	t.Helper()
	k, err := NewTrainKernel(n, TrainConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var flat []float64
	idx := make([]int, len(xs))
	for i, x := range xs {
		flat = append(flat, x...)
		idx[i] = i
	}
	k.curXS, k.curYS, k.curIdx = flat, ys, idx
	k.chunkGrads(0)
	k.snapshot()
	k.beginStep(1, 1/float64(len(xs)), 1e-3)
	k.run(true, k.ranges)
	k.restore()
	return k
}

// TestGradAccumulationScaling: a chunk accumulates its examples'
// gradients and the reduction averages them, so a batch of one example
// twice has exactly the gradient of that example alone.
func TestGradAccumulationScaling(t *testing.T) {
	mk := func() *Network {
		n, _ := New(Config{InDim: 2, Hidden: []int{3}, Out: 2, Seed: 4})
		return n
	}
	x := []float64{1, -1}
	one := batchGrads(t, mk(), [][]float64{x}, []int{0})
	two := batchGrads(t, mk(), [][]float64{x, x}, []int{0, 0})
	for i := range one.g {
		if math.Abs(two.g[i]-one.g[i]) > 1e-12 {
			t.Fatal("gradient accumulation + scaling is not an average")
		}
	}
}
