package embedding

import (
	"errors"
	"math"
	"math/rand"

	"leapme/internal/mathx"
)

// GloVeConfig parameterises the GloVe trainer. The defaults mirror the
// reference implementation of Pennington et al. (2014).
type GloVeConfig struct {
	Dim      int     // embedding dimension (the paper uses 300)
	Window   int     // co-occurrence window size
	MinCount int     // vocabulary frequency cut-off
	Epochs   int     // passes over the co-occurrence pairs
	LR       float64 // initial AdaGrad learning rate
	XMax     float64 // weighting-function saturation point
	Alpha    float64 // weighting-function exponent
	Seed     int64   // RNG seed for init and shuffling
	// NoNormalize serves raw w+w̃ vectors instead of unit-norm ones.
	// Kept for the ablation benches; see the comment at the end of
	// TrainGloVe for why normalisation is the default.
	NoNormalize bool
}

// DefaultGloVeConfig returns the configuration used throughout the
// reproduction: a compact 50-dimensional space (large enough for the
// synthetic domain vocabulary, small enough to train in tests) with the
// reference hyper-parameters.
func DefaultGloVeConfig() GloVeConfig {
	return GloVeConfig{
		Dim:      50,
		Window:   5,
		MinCount: 1,
		Epochs:   30,
		LR:       0.05,
		XMax:     100,
		Alpha:    0.75,
		Seed:     1,
	}
}

// TrainGloVe builds a vocabulary from sentences and fits GloVe vectors by
// AdaGrad on the weighted least-squares objective
//
//	J = Σ f(x_ij) (wᵢ·w̃ⱼ + bᵢ + b̃ⱼ − log x_ij)²
//
// over the distance-weighted co-occurrence counts. The returned Store
// serves wᵢ + w̃ᵢ, the sum of word and context vectors, as the reference
// implementation does.
func TrainGloVe(sentences [][]string, cfg GloVeConfig) (*Store, error) {
	if cfg.Dim <= 0 {
		return nil, errors.New("embedding: GloVe dimension must be positive")
	}
	if cfg.Epochs <= 0 {
		return nil, errors.New("embedding: GloVe epochs must be positive")
	}
	vocab := BuildVocab(sentences, cfg.MinCount)
	if vocab.Size() == 0 {
		return nil, errors.New("embedding: empty vocabulary")
	}
	co := CountCooccurrences(sentences, vocab, cfg.Window)
	if co.NumPairs() == 0 {
		return nil, errors.New("embedding: no co-occurring pairs; corpus too small for window")
	}

	rng := mathx.NewRand(cfg.Seed)
	s := newGloVeSlabs(vocab.Size(), cfg.Dim, cfg.LR, rng)
	examples := co.examples(cfg.XMax, cfg.Alpha)
	order := make([]int, len(examples))
	for i := range order {
		order[i] = i
	}

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		mathx.Shuffle(order, rng)
		for _, idx := range order {
			ex := &examples[idx]
			// Each unordered pair is trained in both directions, matching
			// the symmetric counts of the reference implementation.
			s.step(ex.i, ex.j, ex.fx, ex.logx)
			if ex.i != ex.j {
				s.step(ex.j, ex.i, ex.fx, ex.logx)
			}
		}
	}

	// Serve w + w̃, L2-normalised. GloVe norms grow with corpus frequency,
	// so on a small corpus raw vectors make *rare* unrelated words look
	// close (both tiny) and frequent synonyms look far (both huge); unit
	// norms give the difference-based pair features the same cosine-like
	// geometry the paper's web-scale vectors exhibit for its vocabulary.
	n, d := vocab.Size(), cfg.Dim
	vecs := make([]float64, n*d)
	for i := 0; i < n; i++ {
		v := vecs[i*d : (i+1)*d]
		mathx.AddTo(v, s.w[i*d:(i+1)*d], s.wc[i*d:(i+1)*d])
		if !cfg.NoNormalize {
			if norm := mathx.Norm2(v); norm > 0 {
				mathx.ScaleTo(v, v, 1/norm)
			}
		}
	}
	return NewStore(vocab.Words(), d, vecs)
}

// gloveSlabs is the trainer's state on two flat slabs, one of parameters
// and one of their AdaGrad histories. Both are laid out w | w̃ | b | b̃:
// word and context vectors (n×d each, row-major), then word and context
// biases (n each). The fields are views into the slabs.
type gloveSlabs struct {
	d       int
	lr      float64
	w, wc   []float64 // word and context vectors
	b, bc   []float64 // word and context biases
	gw, gwc []float64 // AdaGrad histories of w and w̃
	gb, gbc []float64 // AdaGrad histories of b and b̃
}

// newGloVeSlabs draws the initial parameters in slab order — w and w̃
// from U(−0.5/d, 0.5/d) (the reference implementation's init range),
// then b and b̃ from U(−0.5, 0.5) — and starts every history at 1. The
// draw order is part of the golden stores' bits.
func newGloVeSlabs(n, d int, lr float64, rng *rand.Rand) *gloveSlabs {
	nd := n * d
	params := make([]float64, 2*nd+2*n)
	span := 1 / float64(d)
	mathx.FillUniform(params[:2*nd], -span/2, span/2, rng)
	mathx.FillUniform(params[2*nd:], -0.5, 0.5, rng)
	hist := make([]float64, len(params))
	mathx.Fill(hist, 1)
	return &gloveSlabs{
		d: d, lr: lr,
		w: params[:nd], wc: params[nd : 2*nd],
		b: params[2*nd : 2*nd+n], bc: params[2*nd+n:],
		gw: hist[:nd], gwc: hist[nd : 2*nd],
		gb: hist[2*nd : 2*nd+n], gbc: hist[2*nd+n:],
	}
}

// step applies one AdaGrad update for the (word i, context j) direction
// of a co-occurrence cell with weight fx = f(x) and target logx = log x.
// It performs no heap allocations.
//
//lint:hotpath gated by TestGloVeStepAllocs
func (s *gloveSlabs) step(i, j int, fx, logx float64) {
	d := s.d
	wi, wj := s.w[i*d:(i+1)*d], s.wc[j*d:(j+1)*d]
	diff := mathx.Dot(wi, wj) + s.b[i] + s.bc[j] - logx
	g := fx * diff // dJ/d(prediction), up to the factor 2 folded into LR
	adagradPair(wi, wj, s.gw[i*d:(i+1)*d], s.gwc[j*d:(j+1)*d], g, s.lr)
	s.b[i] -= s.lr * g / math.Sqrt(s.gb[i])
	s.bc[j] -= s.lr * g / math.Sqrt(s.gbc[j])
	s.gb[i] += g * g
	s.gbc[j] += g * g
}

// weightFn is GloVe's f(x) = (x/xmax)^alpha capped at 1.
func weightFn(x, xmax, alpha float64) float64 {
	if x >= xmax {
		return 1
	}
	return math.Pow(x/xmax, alpha)
}
