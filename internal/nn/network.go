// Package nn implements the dense feed-forward neural network behind
// LEAPME's classifier: fully connected layers with ReLU activations, a
// softmax output with cross-entropy loss, mini-batch training with Adam
// (the Keras defaults the paper's implementation relied on), and the
// paper's staged learning-rate schedule (10 epochs at 1e-3, 5 at 1e-4, 5
// at 1e-5 with batch size 32). The model
// has one representation, the Kernel's flat weight and bias slabs: New
// and Read fill them, TrainKernel trains them in place, WriteTo writes
// them and the Kernel's forward passes read them. Training is
// deterministic given a seed, whatever the worker count.
package nn

import (
	"fmt"
	"math"

	"leapme/internal/mathx"
)

// Activation selects a layer's non-linearity.
type Activation int

// Supported activations.
const (
	ActReLU Activation = iota
	ActSigmoid
	ActTanh
	ActIdentity // used internally by the softmax output layer
)

// String names the activation.
func (a Activation) String() string {
	switch a {
	case ActReLU:
		return "relu"
	case ActSigmoid:
		return "sigmoid"
	case ActTanh:
		return "tanh"
	case ActIdentity:
		return "identity"
	default:
		return "invalid"
	}
}

func (a Activation) apply(x float64) float64 {
	switch a {
	case ActReLU:
		return reluOf(x)
	case ActSigmoid:
		return 1 / (1 + math.Exp(-x))
	case ActTanh:
		return math.Tanh(x)
	default:
		return x
	}
}

// reluOf is ReLU: x when x > 0, else +0, so NaN and −0 map to +0 too.
// The forward routines' AVX epilogue reproduces it with VMAXPD.
func reluOf(x float64) float64 {
	if x > 0 {
		return x
	}
	return 0
}

// derivFromOutput returns dσ/dx given σ(x) (all supported activations
// admit this form, avoiding a second stored buffer).
func (a Activation) derivFromOutput(y float64) float64 {
	switch a {
	case ActReLU:
		if y > 0 {
			return 1
		}
		return 0
	case ActSigmoid:
		return y * (1 - y)
	case ActTanh:
		return 1 - y*y
	default:
		return 1
	}
}

// mulDeriv multiplies each delta d[i] by the derivative at output y[i],
// d[i] *= a.derivFromOutput(y[i]). For ReLU it selects the factor, 1 or
// +0, on its bits: gc compiles that integer select to CMOV, so the loop
// does not branch on each output, about half of which are zero.
func (a Activation) mulDeriv(d, y []float64) {
	y = y[:len(d)]
	if a != ActReLU {
		for i, v := range y {
			d[i] *= a.derivFromOutput(v)
		}
		return
	}
	one := math.Float64bits(1)
	for i, v := range y {
		var g uint64
		if v > 0 {
			g = one
		}
		d[i] *= math.Float64frombits(g)
	}
}

// Network is a feed-forward neural network. It is its Kernel: the layer
// offsets over one weight slab and one bias slab, with no other copy of
// the weights anywhere. NewKernel returns a view of it, and training
// rewrites the slabs in place (see Kernel for the view contract).
type Network struct {
	Kernel
}

// Config describes a network topology.
type Config struct {
	// InDim is the input feature dimension.
	InDim int
	// Hidden lists hidden layer widths; the paper uses {128, 64}.
	Hidden []int
	// Out is the number of output classes; the paper uses 2 and reads the
	// positive-class probability as the similarity score.
	Out int
	// Activation is the hidden-layer non-linearity (default ReLU).
	Activation Activation
	// Seed drives weight initialisation.
	Seed int64
}

// New constructs a network with Glorot-uniform weights (Keras Dense
// defaults): one rng draw per weight, row-major, layer by layer, and
// zero biases.
func New(cfg Config) (*Network, error) {
	if cfg.InDim <= 0 {
		return nil, fmt.Errorf("nn: input dimension %d must be positive", cfg.InDim)
	}
	if cfg.Out <= 0 {
		return nil, fmt.Errorf("nn: output dimension %d must be positive", cfg.Out)
	}
	for i, h := range cfg.Hidden {
		if h <= 0 {
			return nil, fmt.Errorf("nn: hidden layer %d has non-positive width %d", i, h)
		}
	}
	widths := append(append([]int{cfg.InDim}, cfg.Hidden...), cfg.Out)
	var wlen, blen int
	for i := 1; i < len(widths); i++ {
		wlen += widths[i-1] * widths[i]
		blen += widths[i]
	}
	rng := mathx.NewRand(cfg.Seed)
	n := &Network{}
	n.w, n.b = make([]float64, 0, wlen), make([]float64, 0, blen)
	for i := 1; i < len(widths); i++ {
		rows, cols, act := widths[i], widths[i-1], cfg.Activation
		if i == len(widths)-1 {
			act = ActIdentity // output layer: softmax applied by the loss
		}
		n.addLayer(rows, cols, act)
		limit := math.Sqrt(6 / float64(cols+rows))
		for j := 0; j < rows*cols; j++ {
			n.w = append(n.w, (rng.Float64()*2-1)*limit)
		}
		n.b = append(n.b, make([]float64, rows)...)
	}
	return n, nil
}

// Hidden returns the hidden-layer widths (all layers but the output).
func (n *Network) Hidden() []int {
	out := make([]int, 0, len(n.layers)-1)
	for _, l := range n.layers[:len(n.layers)-1] {
		out = append(out, l.rows)
	}
	return out
}

// softmax writes a numerically stable softmax of z into dst.
func softmax(dst, z []float64) {
	m := z[0]
	for _, v := range z[1:] {
		if v > m {
			m = v
		}
	}
	var sum float64
	for i, v := range z {
		e := math.Exp(v - m)
		dst[i] = e
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
}
