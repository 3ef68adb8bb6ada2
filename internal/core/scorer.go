package core

import (
	"errors"
	"fmt"

	"leapme/internal/features"
	"leapme/internal/guard"
	"leapme/internal/nn"
	"leapme/internal/text"
)

// Scorer is a self-contained scoring snapshot of a trained Matcher: the
// network weights, the fitted standardiser and the pair featurizer, with
// no reference to the matcher's mutable property map. It is what the
// serving layer holds per model version — a later Train or ReadModel on
// the source matcher does not affect snapshots already taken, which is
// what makes hot-swapping a model under live traffic safe.
//
// The weights live in the trained network's flat slabs, read through an
// nn.Kernel view shared by every clone; the matcher never trains that
// network again (Train and ReadModel each install a new one), so the
// view is read-only for the snapshot's lifetime. Each Scorer owns only
// its scratch arenas (batch-major pair-vector arena, softmax outputs,
// activation scratch, string-distance scratch), so a warm Score,
// ScoreBatch or ScoreIsolated performs zero heap allocations per pair.
//
// Every score runs through one path: ScoreBatch's single kernel
// ForwardBatch call. Score is a one-pair batch, and ScoreIsolated — the
// loop classification and serving share — scores a whole batch and
// falls back to one-pair batches only for a batch that failed.
//
// Featurize is safe for concurrent use (the extractor and embedding
// store are read-only). The scoring methods are NOT: they reuse the
// scorer's arenas. Concurrent scoring takes one Clone per worker —
// clones share the kernel and cost only their scratch.
type Scorer struct {
	ex         *features.Extractor
	pairer     *features.Pairer
	kern       *nn.Kernel // shared view of the network's weight slabs
	featMean   []float64
	featInvStd []float64
	threshold  float64
	fc         features.Config

	// Per-scorer scratch arenas. Never shared between clones.
	edit    text.EditScratch
	xs      []float64 // batch-major pair vectors, grows to the largest batch seen
	probs   []float64 // batch softmax outputs
	scratch []float64 // kernel activations
}

// NewScorer snapshots the matcher's trained state. The snapshot shares
// the matcher's kernel, featurizer and standardiser (all read-only). A
// later Train or ReadModel on the matcher installs a new network and
// kernel and leaves snapshots already taken untouched.
func (m *Matcher) NewScorer() (*Scorer, error) {
	if m.sc == nil {
		return nil, errors.New("core: NewScorer on untrained matcher")
	}
	return m.newScorer(m.sc.kern), nil
}

// newScorer builds a snapshot over the given kernel and the matcher's
// featurizer, standardiser and threshold.
func (m *Matcher) newScorer(kern *nn.Kernel) *Scorer {
	s := &Scorer{
		ex:         m.ex,
		pairer:     m.pairer,
		kern:       kern,
		featMean:   m.featMean,
		featInvStd: m.featInvStd,
		threshold:  m.opts.Threshold,
		fc:         m.opts.Features,
	}
	// Size the arenas for one pair up front, so even the first Score on
	// a fresh scorer stays off the heap.
	s.ensureBatch(1)
	return s
}

// Clone returns an independent copy sharing the (read-only) kernel,
// featurizer and standardiser but owning fresh scratch arenas, so clones
// can score concurrently with each other and the original.
func (s *Scorer) Clone() *Scorer {
	c := *s
	c.edit = text.EditScratch{}
	c.xs, c.probs, c.scratch = nil, nil, nil
	c.ensureBatch(1)
	return &c
}

// PairDim returns the classifier input dimension.
func (s *Scorer) PairDim() int { return s.pairer.Dim() }

// Threshold returns the score threshold the snapshot was taken with.
func (s *Scorer) Threshold() float64 { return s.threshold }

// Features returns the feature configuration the model was trained with.
func (s *Scorer) Features() features.Config { return s.fc }

// Featurize computes the property feature vector for a property given by
// name and instance values — the serving-path equivalent of
// ComputeFeatures for one property. Safe for concurrent use; the result
// is immutable and cacheable across requests.
func (s *Scorer) Featurize(name string, values []string) *features.Prop {
	return s.ex.PropertyFeatures(name, values)
}

// standardizeInto applies the fitted z-score transform to v in place.
func (s *Scorer) standardizeInto(v []float64) {
	if s.featMean == nil {
		return
	}
	for i := range v {
		v[i] = (v[i] - s.featMean[i]) * s.featInvStd[i]
	}
}

// Score classifies one featurized property pair, returning the network's
// positive-class probability: a one-pair ScoreBatch, so its bits are
// those of the pair in any batch. Warm calls allocate nothing.
//
//lint:hotpath gated by TestScorerZeroAllocs
func (s *Scorer) Score(a, b *features.Prop) (float64, error) {
	if a == nil || b == nil {
		return 0, errors.New("core: Score on nil property features")
	}
	var dst [1]float64
	as, bs := [1]*features.Prop{a}, [1]*features.Prop{b}
	err := s.ScoreBatch(dst[:], as[:], bs[:])
	return dst[0], err
}

// Match applies the snapshot threshold to a score.
func (s *Scorer) Match(score float64) bool { return score >= s.threshold }

// ensureBatch grows the batch arenas to hold n pairs. Growth only ever
// happens when n exceeds the largest batch this scorer has seen, so the
// steady-state batch path allocates nothing.
func (s *Scorer) ensureBatch(n int) {
	if need := n * s.pairer.Dim(); cap(s.xs) < need {
		s.xs = make([]float64, need)
	}
	if need := n * s.kern.OutDim(); cap(s.probs) < need {
		s.probs = make([]float64, need)
	}
	if need := s.kern.BatchScratchLen(n); cap(s.scratch) < need {
		s.scratch = make([]float64, need)
	}
}

// ScoreBatch scores len(as) pairs (as[i], bs[i]) into dst. Pair vectors
// are gathered back-to-back into the scorer's batch-major arena and the
// whole batch runs through the kernel in one ForwardBatch call (each
// weight row streams once per layer across each chunk of eight pairs).
// Scores are bit-identical to len(as) separate Score calls. One bad
// pair fails the whole batch; ScoreIsolated confines it to that pair.
//
//lint:hotpath gated by TestScorerZeroAllocs
func (s *Scorer) ScoreBatch(dst []float64, as, bs []*features.Prop) error {
	if len(as) != len(bs) || len(dst) != len(as) {
		//lint:allow hotalloc cold validation failure: the request is malformed and never reaches the kernel
		return fmt.Errorf("core: ScoreBatch length mismatch: dst=%d as=%d bs=%d", len(dst), len(as), len(bs))
	}
	n := len(as)
	if n == 0 {
		return nil
	}
	dim := s.pairer.Dim()
	//lint:allow hotalloc ensureBatch grows the arenas only when n exceeds every batch seen before; steady state allocates nothing (pinned by TestScorerZeroAllocs)
	s.ensureBatch(n)
	xs := s.xs[:n*dim]
	for i := range as {
		if as[i] == nil || bs[i] == nil {
			//lint:allow hotalloc cold validation failure: nil pair, request rejected before scoring
			return fmt.Errorf("core: batch pair %d: nil property features", i)
		}
		v := xs[i*dim : (i+1)*dim]
		s.pairer.PairVectorScratch(v, as[i], bs[i], &s.edit)
		s.standardizeInto(v)
	}
	outDim := s.kern.OutDim()
	probs := s.probs[:n*outDim]
	s.kern.ForwardBatch(probs, xs, n, s.scratch[:s.kern.BatchScratchLen(n)])
	for i := 0; i < n; i++ {
		dst[i] = probs[i*outDim+1]
	}
	return nil
}

// ScoreIsolated scores len(as) pairs into dst so that a failing pair
// fails alone: errs[i] is nil when dst[i] holds pair i's score, else the
// pair's error with dst[i] = 0. It runs the whole batch through
// ScoreBatch under panic isolation and, only if that fails — a corrupt
// feature vector panics, say — scores the pairs again one at a time, so
// the good pairs still get their scores, bit-identical either way. It is
// the one scoring loop classification rounds and the serving batcher
// share. errs must have len(dst); warm calls allocate nothing.
func (s *Scorer) ScoreIsolated(dst []float64, errs []error, as, bs []*features.Prop) {
	if len(errs) != len(dst) {
		panic(fmt.Sprintf("core: ScoreIsolated has %d error slots for %d scores", len(errs), len(dst)))
	}
	if guard.Run(func() error { return s.ScoreBatch(dst, as, bs) }) == nil {
		clear(errs)
		return
	}
	for i := range dst {
		dst[i] = 0
		errs[i] = guard.Run(func() error {
			var err error
			dst[i], err = s.Score(as[i], bs[i])
			return err
		})
	}
}
