// Package nn implements the dense feed-forward neural network behind
// LEAPME's classifier: fully connected layers with ReLU activations, a
// softmax output with cross-entropy loss, mini-batch training with SGD,
// momentum or Adam, and the paper's staged learning-rate schedule (10
// epochs at 1e-3, 5 at 1e-4, 5 at 1e-5 with batch size 32). Training runs
// on one implementation, TrainKernel; the network and its training are
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
		if x > 0 {
			return x
		}
		return 0
	case ActSigmoid:
		return 1 / (1 + math.Exp(-x))
	case ActTanh:
		return math.Tanh(x)
	default:
		return x
	}
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

// layer is one dense layer: out = act(W·in + b).
type layer struct {
	w   *mathx.Matrix // out×in
	b   []float64
	act Activation
	out []float64 // forward scratch: the last activation output
}

func newLayer(inDim, outDim int, act Activation, rng interface{ Float64() float64 }) *layer {
	l := &layer{
		w:   mathx.NewMatrix(outDim, inDim),
		b:   make([]float64, outDim),
		act: act,
		out: make([]float64, outDim),
	}
	// Glorot uniform init, as in Keras Dense defaults.
	limit := math.Sqrt(6 / float64(inDim+outDim))
	for i := range l.w.Data {
		l.w.Data[i] = (rng.Float64()*2 - 1) * limit
	}
	return l
}

// forward computes the layer output for x into the layer's scratch.
func (l *layer) forward(x []float64) []float64 {
	l.w.MulVec(l.out, x)
	for i := range l.out {
		l.out[i] = l.act.apply(l.out[i] + l.b[i])
	}
	return l.out
}

// Network is a feed-forward neural network.
type Network struct {
	layers []*layer
	inDim  int
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

// PaperConfig returns the architecture of Section IV-D: hidden layers of
// 128 and 64 units and a 2-way softmax output.
func PaperConfig(inDim int, seed int64) Config {
	return Config{InDim: inDim, Hidden: []int{128, 64}, Out: 2, Activation: ActReLU, Seed: seed}
}

// New constructs a network.
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
	rng := mathx.NewRand(cfg.Seed)
	n := &Network{inDim: cfg.InDim}
	prev := cfg.InDim
	for _, h := range cfg.Hidden {
		n.layers = append(n.layers, newLayer(prev, h, cfg.Activation, rng))
		prev = h
	}
	// Output layer: linear pre-activation; softmax applied by the loss.
	n.layers = append(n.layers, newLayer(prev, cfg.Out, ActIdentity, rng))
	return n, nil
}

// InDim returns the expected input dimension.
func (n *Network) InDim() int { return n.inDim }

// Clone returns a deep copy of the network: independent weights and —
// crucially — independent forward scratch buffers, so the clone
// can run Forward concurrently with the original. A Network is not safe
// for concurrent use by itself (forward passes reuse per-layer scratch);
// concurrent scorers each take a clone.
func (n *Network) Clone() *Network {
	c := &Network{inDim: n.inDim}
	for _, l := range n.layers {
		nl := newLayer(l.w.Cols, l.w.Rows, l.act, zeroRand{})
		copy(nl.w.Data, l.w.Data)
		copy(nl.b, l.b)
		c.layers = append(c.layers, nl)
	}
	return c
}

// zeroRand satisfies the initialiser interface with zeros; Clone
// overwrites all weights anyway.
type zeroRand struct{}

func (zeroRand) Float64() float64 { return 0 }

// Hidden returns the hidden-layer widths (all layers but the output).
func (n *Network) Hidden() []int {
	out := make([]int, 0, len(n.layers)-1)
	for _, l := range n.layers[:len(n.layers)-1] {
		out = append(out, l.w.Rows)
	}
	return out
}

// OutDim returns the number of output classes.
func (n *Network) OutDim() int { return n.layers[len(n.layers)-1].w.Rows }

// Forward runs the network and returns the softmax class probabilities.
// The returned slice is owned by the caller.
func (n *Network) Forward(x []float64) ([]float64, error) {
	if len(x) != n.inDim {
		return nil, fmt.Errorf("nn: input has dim %d, want %d", len(x), n.inDim)
	}
	h := x
	for _, l := range n.layers {
		h = l.forward(h)
	}
	out := make([]float64, len(h))
	softmax(out, h)
	return out, nil
}

// Classify returns the argmax class for x.
func (n *Network) Classify(x []float64) (int, error) {
	p, err := n.Forward(x)
	if err != nil {
		return 0, err
	}
	return mathx.ArgMax(p), nil
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
