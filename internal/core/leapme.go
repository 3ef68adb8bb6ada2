// Package core implements LEAPME itself (Algorithm 1 of the paper):
// LEArning-based Property Matching with Embeddings.
//
// The pipeline is exactly the paper's five steps:
//
//  1. initialise the feature stores;
//  2. compute instance features for every property instance (iFeatures);
//  3. aggregate them per property and add name features (pFeatures);
//  4. compute features for property pairs (ppFeatures);
//  5. train a dense neural network on the labeled pairs and classify the
//     unlabeled ones, emitting a similarity score per pair (the network's
//     positive-class probability), which forms a similarity graph.
//
// The Matcher retains the trained network, so it can score previously
// unseen property pairs and be transferred across datasets (the paper's
// transfer-learning experiment).
package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"leapme/internal/dataset"
	"leapme/internal/embedding"
	"leapme/internal/features"
	"leapme/internal/guard"
	"math"

	"leapme/internal/nn"
	"leapme/internal/text"
)

// Options configures a Matcher.
type Options struct {
	// Features selects the feature configuration (default: all features).
	Features features.Config
	// Hidden are the hidden-layer widths (default: the paper's {128, 64}).
	Hidden []int
	// Schedule is the LR schedule (default: the paper's staged schedule).
	Schedule []nn.Phase
	// BatchSize for training (default 32, as in the paper).
	BatchSize int
	// MaxValues caps instance values aggregated per property (0 = all).
	MaxValues int
	// Threshold converts scores to match decisions (default 0.5).
	Threshold float64
	// NoStandardize disables z-score standardisation of pair features
	// (fitted on the training pairs, applied everywhere). Standardisation
	// is on by default: the meta-feature counts live on a ~30× larger
	// scale than embedding differences and would otherwise dominate the
	// early epochs of the paper's fixed LR schedule.
	NoStandardize bool
	// Seed drives weight init, shuffling, and negative sampling.
	Seed int64
	// Workers sets the parallelism of featurization, training and
	// classification; 0 (the default) and negative values mean one
	// worker per CPU. No result depends on it: featurization fans out
	// whole properties, each computed serially, training
	// (nn.TrainKernel) fixes its gradient chunks and reduction order by
	// the batch size alone, and classification scores bit-identically to
	// one pair at a time — so every value, 0 included, trains the same
	// model bytes and emits the same scores.
	Workers int
}

// DefaultOptions returns the paper's configuration.
func DefaultOptions(seed int64) Options {
	return Options{
		Features:  features.FullConfig(),
		Hidden:    []int{128, 64},
		Schedule:  nn.PaperSchedule(),
		BatchSize: 32,
		Threshold: 0.5,
		Seed:      seed,
	}
}

// LabeledPair is a training example: a property pair and whether it is a
// true match.
type LabeledPair struct {
	A, B  dataset.Key
	Match bool
}

// ScoredPair is a classified property pair: the similarity score is the
// network's positive-class probability; Match applies the threshold.
type ScoredPair struct {
	A, B  dataset.Key
	Score float64
	Match bool
}

// Matcher is a trained (or trainable) LEAPME property matcher.
type Matcher struct {
	opts   Options
	ex     *features.Extractor
	pairer *features.Pairer
	props  map[dataset.Key]*features.Prop
	net    *nn.Network
	// sc is the float64 scoring snapshot of net that all of the
	// matcher's own inference runs through: Score and Explain use it
	// directly, the Match* runs score through workerSc, one clone of it
	// per classification worker, kept across runs so their scratch
	// stays warm.
	sc       *Scorer
	workerSc []*Scorer

	// Standardisation parameters fitted on the training pairs.
	featMean, featInvStd []float64

	// lastReport records per-unit failures of the most recent
	// ComputeFeatures or Match* run (see LastReport).
	lastReport *guard.Report
}

// NewMatcher builds a matcher over the given embedding store.
func NewMatcher(store *embedding.Store, opts Options) (*Matcher, error) {
	if store == nil {
		return nil, errors.New("core: nil embedding store")
	}
	if !opts.Features.Valid() {
		opts.Features = features.FullConfig()
	}
	if len(opts.Hidden) == 0 {
		opts.Hidden = []int{128, 64}
	}
	if len(opts.Schedule) == 0 {
		opts.Schedule = nn.PaperSchedule()
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = 32
	}
	if opts.Threshold <= 0 || opts.Threshold >= 1 {
		opts.Threshold = 0.5
	}
	ex := features.NewExtractor(store)
	ex.MaxValues = opts.MaxValues
	pairer, err := features.NewPairer(ex, opts.Features)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Matcher{
		opts:   opts,
		ex:     ex,
		pairer: pairer,
		props:  map[dataset.Key]*features.Prop{},
	}, nil
}

// Options returns the matcher's effective options.
func (m *Matcher) Options() Options { return m.opts }

// PairDim returns the classifier input dimension under the configured
// features.
func (m *Matcher) PairDim() int { return m.pairer.Dim() }

// ComputeFeatures runs steps 1–3 of Algorithm 1 for every property of d:
// instance features, aggregated into property features. It may be called
// for several datasets; properties accumulate in the matcher.
//
// Properties are featurized in parallel (the extractor and embedding
// store are read-only) under panic isolation: a panic while featurizing
// one property is recorded in LastReport and that property simply gets no
// features — scoring it later fails loudly — while the rest of the
// dataset proceeds. The returned error is non-nil only for hard failures:
// a nil dataset or a done context (prompt ctx.Err() propagation).
func (m *Matcher) ComputeFeatures(ctx context.Context, d *dataset.Dataset) error {
	if d == nil {
		return errors.New("core: ComputeFeatures on nil dataset")
	}
	values := d.InstancesByProperty()
	items := make([]features.PropertyInput, len(d.Props))
	for i, p := range d.Props {
		items[i] = features.PropertyInput{
			Name:   p.Name,
			Values: values[p.Key()],
			Label:  "featurize " + p.Key().String(),
		}
	}
	mat, rep, err := m.ex.FeatureMatrix(ctx, m.opts.Workers, items)
	m.lastReport = rep
	for i, p := range mat.Props {
		if p != nil {
			m.props[d.Props[i].Key()] = p
		}
	}
	return err
}

// LastReport returns the per-unit failure report of the most recent
// ComputeFeatures or Match* call on this matcher (nil before the first).
// A run proceeds past failed units; callers decide whether the failure
// rate recorded here is acceptable.
func (m *Matcher) LastReport() *guard.Report { return m.lastReport }

// NumProperties returns how many properties have computed features.
func (m *Matcher) NumProperties() int { return len(m.props) }

// AdoptFeatures shares src's computed property features instead of
// recomputing them. Property feature vectors are config-independent (the
// Pairer selects blocks at pair time), so matchers with different feature
// configurations can share them as long as both use the same embedding
// dimension. The feature map is shared, not copied: ComputeFeatures on
// either matcher afterwards is visible to both.
func (m *Matcher) AdoptFeatures(src *Matcher) error {
	if src == nil {
		return errors.New("core: AdoptFeatures from nil matcher")
	}
	if m.ex.PropertyDim() != src.ex.PropertyDim() {
		return fmt.Errorf("core: AdoptFeatures dimension mismatch: %d vs %d",
			m.ex.PropertyDim(), src.ex.PropertyDim())
	}
	m.props = src.props
	return nil
}

// prop fetches a property's features, failing loudly on unknown keys —
// scoring a property whose features were never computed is a programming
// error at the call site.
func (m *Matcher) prop(k dataset.Key) (*features.Prop, error) {
	p, ok := m.props[k]
	if !ok {
		return nil, fmt.Errorf("core: no features computed for property %s (call ComputeFeatures first)", k)
	}
	return p, nil
}

// Train runs step 5a: it builds pair feature vectors for the labeled pairs
// and fits the network. It returns the final-epoch mean loss. Training is
// cancellable through ctx (checked between mini-batches) and recovers
// from loss divergence by checkpoint rollback with a backed-off learning
// rate (see nn.TrainConfig); a nil ctx behaves like context.Background().
func (m *Matcher) Train(ctx context.Context, pairs []LabeledPair) (float64, error) {
	if len(pairs) == 0 {
		return 0, errors.New("core: no training pairs")
	}
	// Pair vectors are emitted into one flat (n × dim) slab, standardised
	// in place, and fitted by the training kernel without row copies.
	dim := m.pairer.Dim()
	flat := make([]float64, len(pairs)*dim)
	ys := make([]int, len(pairs))
	var es text.EditScratch
	for i, lp := range pairs {
		a, err := m.prop(lp.A)
		if err != nil {
			return 0, err
		}
		b, err := m.prop(lp.B)
		if err != nil {
			return 0, err
		}
		m.pairer.PairVectorScratch(flat[i*dim:(i+1)*dim], a, b, &es)
		if lp.Match {
			ys[i] = 1
		}
	}
	m.fitStandardizer(flat)
	for i := range ys {
		m.standardize(flat[i*dim : (i+1)*dim])
	}
	net, err := nn.New(nn.Config{
		InDim:      dim,
		Hidden:     m.opts.Hidden,
		Out:        2,
		Activation: nn.ActReLU,
		Seed:       m.opts.Seed,
	})
	if err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	k, err := nn.NewTrainKernel(net, nn.TrainConfig{
		Schedule:  m.opts.Schedule,
		BatchSize: m.opts.BatchSize,
		Seed:      m.opts.Seed,
		Workers:   m.opts.Workers,
	})
	if err != nil {
		return 0, fmt.Errorf("core: training: %w", err)
	}
	loss, err := k.Fit(ctx, flat, ys)
	if err != nil {
		return 0, fmt.Errorf("core: training: %w", err)
	}
	m.setModel(net)
	return loss, nil
}

// setModel installs a trained network whose input dimension matches the
// pair dimension and which has at least two classes, and takes the
// scoring snapshot all inference runs through.
func (m *Matcher) setModel(net *nn.Network) {
	m.net = net
	m.sc = m.newScorer(nn.NewKernel(net))
	m.workerSc = nil
}

// Trained reports whether the matcher has a fitted network.
func (m *Matcher) Trained() bool { return m.net != nil }

// Score classifies a single property pair (step 5b for one pair).
func (m *Matcher) Score(a, b dataset.Key) (ScoredPair, error) {
	if m.sc == nil {
		return ScoredPair{}, errors.New("core: matcher is not trained")
	}
	pa, err := m.prop(a)
	if err != nil {
		return ScoredPair{}, err
	}
	pb, err := m.prop(b)
	if err != nil {
		return ScoredPair{}, err
	}
	s, err := m.sc.Score(pa, pb)
	if err != nil {
		return ScoredPair{}, err
	}
	return ScoredPair{A: a, B: b, Score: s, Match: s >= m.opts.Threshold}, nil
}

// MatchAll runs step 5b over every cross-source pair of props, streaming
// each scored pair to fn. Pairs are classified in bounded rounds (see
// MatchWhere), so memory stays bounded by the worker count times the
// round size regardless of the quadratic pair count.
func (m *Matcher) MatchAll(ctx context.Context, props []dataset.Property, fn func(ScoredPair)) error {
	return m.MatchWhere(ctx, props, nil, fn)
}

// MatchWhere is MatchAll restricted to cross-source pairs for which
// include returns true (nil includes everything). The evaluation protocol
// uses it to classify exactly the pairs not wholly inside the training
// sources, as the paper prescribes.
//
// Pairs are enumerated in CrossSourcePairs order into bounded rounds;
// each round is scored in fixed 64-pair batches on Options.Workers
// workers (all CPUs at 0) and then streamed to fn. fn runs only on the
// caller goroutine, one pair at a time, in enumeration order, and every
// score is bit-identical to scoring the pair alone, whatever the worker
// count. Memory stays bounded by workers × round size.
//
// The unit of failure is one pair: a panic while scoring a pair or inside
// the fn callback is contained, recorded in LastReport, and the run
// continues — it degrades gracefully rather than aborting. Hard errors
// still abort: a missing property (features never computed) is a caller
// bug, reported after the pairs enumerated before it have reached fn. A
// done ctx ends the run with ctx.Err(): no callback runs after ctx is
// done, and in-flight scoring stops within one batch. A nil ctx behaves
// like context.Background().
func (m *Matcher) MatchWhere(ctx context.Context, props []dataset.Property, include func(a, b dataset.Property) bool, fn func(ScoredPair)) error {
	if m.sc == nil {
		return errors.New("core: matcher is not trained")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	r := m.newMatchRun(ctx, fn, len(props)*(len(props)-1)/2)
	var err error
	dataset.CrossSourcePairs(props, func(a, b dataset.Property) bool {
		if err = ctx.Err(); err != nil {
			return false
		}
		if include != nil && !include(a, b) {
			return true
		}
		ka, kb := a.Key(), b.Key()
		var pa, pb *features.Prop
		if pa, err = m.prop(ka); err != nil {
			return false
		}
		if pb, err = m.prop(kb); err != nil {
			return false
		}
		err = r.add(ka, kb, pa, pb)
		return err == nil
	})
	return r.finish(err)
}

// MatchCandidates scores exactly the given candidate pairs (e.g. from a
// blocker) instead of the full cross product, streaming each scored pair
// to fn in candidate order. Features for both endpoints must have been
// computed. Batching, workers, memory bound and failure semantics match
// MatchWhere: per-pair panics are isolated into LastReport, unknown
// properties and a done ctx abort.
func (m *Matcher) MatchCandidates(ctx context.Context, cands []dataset.Pair, fn func(ScoredPair)) error {
	if m.sc == nil {
		return errors.New("core: matcher is not trained")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	r := m.newMatchRun(ctx, fn, len(cands))
	for _, c := range cands {
		if err := ctx.Err(); err != nil {
			return err
		}
		pa, err := m.prop(c.A)
		if err != nil {
			return r.finish(err)
		}
		pb, err := m.prop(c.B)
		if err != nil {
			return r.finish(err)
		}
		if err := r.add(c.A, c.B, pa, pb); err != nil {
			return err
		}
	}
	return r.finish(nil)
}

// Matches collects the pairs MatchAll classifies as matches — the
// similarity graph Sim of Algorithm 1, keeping only positive edges.
func (m *Matcher) Matches(ctx context.Context, props []dataset.Property) ([]ScoredPair, error) {
	var out []ScoredPair
	err := m.MatchAll(ctx, props, func(sp ScoredPair) {
		if sp.Match {
			out = append(out, sp)
		}
	})
	return out, err
}

// fitStandardizer computes per-dimension mean and inverse standard
// deviation from the training pair vectors, stored row-major in flat.
func (m *Matcher) fitStandardizer(flat []float64) {
	if m.opts.NoStandardize {
		m.featMean, m.featInvStd = nil, nil
		return
	}
	dim := m.pairer.Dim()
	mean := make([]float64, dim)
	for r := 0; r < len(flat); r += dim {
		for i, v := range flat[r : r+dim] {
			mean[i] += v
		}
	}
	n := float64(len(flat) / dim)
	for i := range mean {
		mean[i] /= n
	}
	invStd := make([]float64, dim)
	for r := 0; r < len(flat); r += dim {
		for i, v := range flat[r : r+dim] {
			d := v - mean[i]
			invStd[i] += d * d
		}
	}
	for i := range invStd {
		sd := math.Sqrt(invStd[i] / n)
		if sd < 1e-9 {
			invStd[i] = 0 // constant feature: standardises to 0
		} else {
			invStd[i] = 1 / sd
		}
	}
	m.featMean, m.featInvStd = mean, invStd
}

// standardize applies the fitted z-score transform in place (no-op when
// standardisation is disabled or not yet fitted).
func (m *Matcher) standardize(x []float64) {
	if m.featMean == nil {
		return
	}
	for i := range x {
		x[i] = (x[i] - m.featMean[i]) * m.featInvStd[i]
	}
}

// TrainingPairs builds a labeled training set from ground-truth properties
// in the paper's regime: every cross-source matching pair is a positive;
// negRatio random non-matching cross-source pairs are sampled per positive
// (the paper uses negRatio = 2).
func TrainingPairs(props []dataset.Property, negRatio int, rng *rand.Rand) []LabeledPair {
	if negRatio < 0 {
		negRatio = 2
	}
	var out []LabeledPair
	pos := dataset.MatchingPairs(props)
	for _, p := range pos {
		out = append(out, LabeledPair{A: p.A, B: p.B, Match: true})
	}
	want := len(pos) * negRatio
	seen := map[dataset.Pair]bool{}
	for _, p := range pos {
		seen[p] = true
	}
	// Rejection-sample negatives; bail out if the space is too small.
	maxAttempts := want*20 + 100
	for n, attempts := 0, 0; n < want && attempts < maxAttempts; attempts++ {
		i, j := rng.Intn(len(props)), rng.Intn(len(props))
		a, b := props[i], props[j]
		if i == j || a.Source == b.Source || dataset.Matching(a, b) {
			continue
		}
		pair := dataset.Pair{A: a.Key(), B: b.Key()}.Canonical()
		if seen[pair] {
			continue
		}
		seen[pair] = true
		out = append(out, LabeledPair{A: pair.A, B: pair.B, Match: false})
		n++
	}
	return out
}
