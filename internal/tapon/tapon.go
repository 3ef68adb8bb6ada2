// Package tapon implements a compact version of TAPON (Ayala et al.,
// "TAPON: a two-phase machine learning approach for semantic labelling",
// Knowledge-Based Systems 2019) — the system the paper's instance
// features come from ("Instance features are computed with TAPON, which
// includes several format-related features to which we added the
// embedding ones", Section IV-D).
//
// TAPON assigns *semantic labels* (reference-ontology classes) to slots —
// here: source properties — from their instance values alone:
//
//	phase 1: classify each property from its aggregated instance
//	         features (the same Table I rows 1–4 LEAPME uses);
//	phase 2: re-classify with *hint features* appended — information
//	         about the phase-1 labels of the property's siblings in the
//	         same source and the confidence profile of phase 1 — letting
//	         structure correct locally-ambiguous slots.
//
// Besides grounding the feature pipeline's provenance, the labeler is
// useful on its own: it maps a brand-new source onto the reference
// ontology without any pairwise matching.
package tapon

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"leapme/internal/dataset"
	"leapme/internal/embedding"
	"leapme/internal/features"
	"leapme/internal/nn"
	"leapme/internal/parallel"
)

// Options configures the labeler.
type Options struct {
	// Hidden layers of the per-phase networks (default {64, 32}).
	Hidden []int
	// Schedule is the LR schedule (default: the paper's staged schedule).
	Schedule []nn.Phase
	// BatchSize (default 32).
	BatchSize int
	// MaxValues caps aggregated instance values per property (0 = all).
	MaxValues int
	// Seed drives initialisation and shuffling.
	Seed int64
	// Workers parallelises featurization, training and labeling;
	// negative means one worker per CPU. At 0 featurization and training
	// use all CPUs and labeling runs serially. Results are bit-identical
	// for every value: both phases train on nn.TrainKernel, whose
	// gradient order does not depend on the worker count.
	Workers int
}

// DefaultOptions returns sensible defaults.
func DefaultOptions(seed int64) Options {
	return Options{Hidden: []int{64, 32}, Schedule: nn.PaperSchedule(), BatchSize: 32, Seed: seed}
}

// Labeler is a trained two-phase semantic labeler.
type Labeler struct {
	opts    Options
	ex      *features.Extractor
	classes []string       // label index → reference property name
	classID map[string]int // reference property name → label index
	phase1  *nn.Network
	phase2  *nn.Network

	// z-score standardisation of the base features, fitted on training
	// slots (the meta-feature counts dwarf embedding components
	// otherwise, as in package core).
	featMean, featInvStd []float64
}

// New builds an untrained labeler over the given embedding store and
// label set (the reference ontology's property names).
func New(store *embedding.Store, classes []string, opts Options) (*Labeler, error) {
	if store == nil {
		return nil, errors.New("tapon: nil embedding store")
	}
	if len(classes) < 2 {
		return nil, fmt.Errorf("tapon: need at least 2 classes, got %d", len(classes))
	}
	if len(opts.Hidden) == 0 {
		opts.Hidden = []int{64, 32}
	}
	if len(opts.Schedule) == 0 {
		opts.Schedule = nn.PaperSchedule()
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = 32
	}
	ex := features.NewExtractor(store)
	ex.MaxValues = opts.MaxValues
	l := &Labeler{
		opts:    opts,
		ex:      ex,
		classes: append([]string(nil), classes...),
		classID: map[string]int{},
	}
	sort.Strings(l.classes)
	for i, c := range l.classes {
		l.classID[c] = i
	}
	return l, nil
}

// Classes returns the label set in index order.
func (l *Labeler) Classes() []string { return l.classes }

// slot is one property with its base features, grouped by source.
type slot struct {
	source string
	base   []float64 // aggregated instance features (29 + D)
	label  int       // ground truth (training) or -1
}

// baseFeatures computes aggregated instance features for every property
// of d that has at least one instance value. Property *names* are
// deliberately not used: TAPON labels slots whose names are unreliable or
// machine-generated (the scenario the paper cites it for).
//
// Candidate properties are featurized on a worker pool (Options.Workers)
// with results merged in property order, so the slot list is identical
// for every worker count.
func (l *Labeler) baseFeatures(ctx context.Context, d *dataset.Dataset, labeled bool) ([]slot, []dataset.Key, error) {
	values := d.InstancesByProperty()
	// Select candidates first so the parallel stage is a pure map over a
	// fixed index set.
	var cand []int
	var labels []int
	for i, p := range d.Props {
		if len(values[p.Key()]) == 0 {
			continue
		}
		lbl := -1
		if labeled {
			id, ok := l.classID[p.Ref]
			if !ok {
				continue // not a reference property (noise): not a training slot
			}
			lbl = id
		}
		cand = append(cand, i)
		labels = append(labels, lbl)
	}
	bases, rep, err := parallel.Map(ctx, parallel.Resolve(l.opts.Workers), len(cand),
		func(i int) string { return "featurize " + d.Props[cand[i]].Key().String() },
		func(i int) ([]float64, error) {
			p := d.Props[cand[i]]
			prop := l.ex.PropertyFeatures(p.Name, values[p.Key()])
			// Use only the instance block (rows 1–4 aggregated); the name
			// embedding block is dropped.
			return append([]float64(nil), prop.Vec[:l.ex.InstanceDim()]...), nil
		})
	if err != nil {
		return nil, nil, err
	}
	if rep.Failed() > 0 {
		return nil, nil, rep.Err()
	}
	slots := make([]slot, len(cand))
	keys := make([]dataset.Key, len(cand))
	for i, pi := range cand {
		p := d.Props[pi]
		slots[i] = slot{source: p.Source, base: bases[i], label: labels[i]}
		keys[i] = p.Key()
	}
	return slots, keys, nil
}

// hintDim is the width of the phase-2 hint block: the slot's own phase-1
// probability vector plus the mean phase-1 probability vector of its
// same-source siblings.
func (l *Labeler) hintDim() int { return 2 * len(l.classes) }

// hints computes phase-2 hint features for each slot from phase-1
// probability vectors.
func (l *Labeler) hints(slots []slot, probs [][]float64) [][]float64 {
	// Sibling mean per source.
	sums := map[string][]float64{}
	counts := map[string]int{}
	for i, s := range slots {
		if sums[s.source] == nil {
			sums[s.source] = make([]float64, len(l.classes))
		}
		for j, p := range probs[i] {
			sums[s.source][j] += p
		}
		counts[s.source]++
	}
	out := make([][]float64, len(slots))
	for i, s := range slots {
		h := make([]float64, l.hintDim())
		copy(h, probs[i])
		n := counts[s.source]
		for j := range l.classes {
			sib := sums[s.source][j] - probs[i][j]
			if n > 1 {
				sib /= float64(n - 1)
			}
			h[len(l.classes)+j] = sib
		}
		out[i] = h
	}
	return out
}

// Train fits both phases on the labeled properties of d (those whose Ref
// is one of the labeler's classes and that carry instance values). ctx
// cancels training between mini-batches; nil means context.Background().
func (l *Labeler) Train(ctx context.Context, d *dataset.Dataset) error {
	slots, _, err := l.baseFeatures(ctx, d, true)
	if err != nil {
		return err
	}
	if len(slots) == 0 {
		return errors.New("tapon: no labeled training slots with instance values")
	}
	l.fitStandardizer(slots)
	for i := range slots {
		l.standardize(slots[i].base)
	}
	xs1 := make([][]float64, len(slots))
	ys := make([]int, len(slots))
	for i, s := range slots {
		xs1[i] = s.base
		ys[i] = s.label
	}
	net1, err := nn.New(nn.Config{
		InDim: l.ex.InstanceDim(), Hidden: l.opts.Hidden, Out: len(l.classes),
		Activation: nn.ActReLU, Seed: l.opts.Seed,
	})
	if err != nil {
		return fmt.Errorf("tapon: %w", err)
	}
	cfg := nn.TrainConfig{
		Schedule: l.opts.Schedule, BatchSize: l.opts.BatchSize,
		Seed: l.opts.Seed, Workers: l.opts.Workers,
	}
	if _, err := net1.Fit(ctx, xs1, ys, cfg); err != nil {
		return fmt.Errorf("tapon: phase 1: %w", err)
	}
	l.phase1 = net1

	// Phase-1 probabilities on the training slots feed phase-2 hints.
	probs, err := l.forwardAll(ctx, net1, slots, nil)
	if err != nil {
		return err
	}
	hints := l.hints(slots, probs)
	xs2 := make([][]float64, len(slots))
	for i, s := range slots {
		xs2[i] = append(append([]float64(nil), s.base...), hints[i]...)
	}
	net2, err := nn.New(nn.Config{
		InDim: l.ex.InstanceDim() + l.hintDim(), Hidden: l.opts.Hidden, Out: len(l.classes),
		Activation: nn.ActReLU, Seed: l.opts.Seed + 1,
	})
	if err != nil {
		return fmt.Errorf("tapon: %w", err)
	}
	cfg.Seed = l.opts.Seed + 1
	if _, err := net2.Fit(ctx, xs2, ys, cfg); err != nil {
		return fmt.Errorf("tapon: phase 2: %w", err)
	}
	l.phase2 = net2
	return nil
}

// Trained reports whether both phases are fitted.
func (l *Labeler) Trained() bool { return l.phase1 != nil && l.phase2 != nil }

// Prediction is one labeled property.
type Prediction struct {
	Key dataset.Key
	// Label is the predicted reference property.
	Label string
	// Confidence is the phase-2 probability of the predicted label.
	Confidence float64
	// Phase1Label records what phase 1 alone would have said.
	Phase1Label string
}

// forwardChunkSize is how many slots one ForwardBatch call scores.
const forwardChunkSize = 64

// forwardAll runs net on every slot input (xs[i] when xs is non-nil,
// otherwise slots[i].base) and returns the probability vectors in slot
// order. Chunks of slots are packed row-major and scored through the
// network's kernel with ForwardBatch, on Options.Workers workers (one
// at 0, so labeling runs serially). Every lane of ForwardBatch is
// bit-identical to a single-input forward pass, so the output is the
// same for every worker count.
func (l *Labeler) forwardAll(ctx context.Context, net *nn.Network, slots []slot, xs [][]float64) ([][]float64, error) {
	k := nn.NewKernel(net)
	inDim, outDim := k.InDim(), k.OutDim()
	probs := make([][]float64, len(slots))
	chunks := parallel.Chunks(len(probs), forwardChunkSize)
	workers := max(parallel.Resolve(l.opts.Workers), 1)
	rep, err := parallel.ForEach(ctx, workers, len(chunks), nil, func(ci int) error {
		lo, m := chunks[ci].Lo, chunks[ci].Hi-chunks[ci].Lo
		batch := make([]float64, 0, m*inDim)
		for i := lo; i < lo+m; i++ {
			if xs != nil {
				batch = append(batch, xs[i]...)
			} else {
				batch = append(batch, slots[i].base...)
			}
		}
		out := make([]float64, m*outDim)
		k.ForwardBatch(out, batch, m, make([]float64, k.BatchScratchLen(m)))
		for i := 0; i < m; i++ {
			probs[lo+i] = out[i*outDim : (i+1)*outDim : (i+1)*outDim]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if rep.Failed() > 0 {
		return nil, rep.Err()
	}
	return probs, nil
}

// Label classifies every property of d that has instance values. ctx
// cancels featurization and scoring; nil means context.Background().
func (l *Labeler) Label(ctx context.Context, d *dataset.Dataset) ([]Prediction, error) {
	if !l.Trained() {
		return nil, errors.New("tapon: labeler is not trained")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	slots, keys, err := l.baseFeatures(ctx, d, false)
	if err != nil {
		return nil, err
	}
	for i := range slots {
		l.standardize(slots[i].base)
	}
	probs, err := l.forwardAll(ctx, l.phase1, slots, nil)
	if err != nil {
		return nil, err
	}
	hints := l.hints(slots, probs)
	xs2 := make([][]float64, len(slots))
	for i, s := range slots {
		xs2[i] = append(append([]float64(nil), s.base...), hints[i]...)
	}
	p2s, err := l.forwardAll(ctx, l.phase2, slots, xs2)
	if err != nil {
		return nil, err
	}
	out := make([]Prediction, len(slots))
	for i := range slots {
		best, conf := argmax(p2s[i])
		p1best, _ := argmax(probs[i])
		out[i] = Prediction{
			Key:         keys[i],
			Label:       l.classes[best],
			Confidence:  conf,
			Phase1Label: l.classes[p1best],
		}
	}
	return out, nil
}

// Accuracy scores predictions against ground truth Refs, ignoring
// properties whose Ref is not one of the labeler's classes. It returns
// phase-2 and phase-1 accuracy, so callers can see the two-phase gain.
func Accuracy(preds []Prediction, d *dataset.Dataset) (phase2, phase1 float64, n int) {
	refs := map[dataset.Key]string{}
	for _, p := range d.Props {
		refs[p.Key()] = p.Ref
	}
	var ok2, ok1 int
	for _, pr := range preds {
		want := refs[pr.Key]
		if want == "" {
			continue
		}
		n++
		if pr.Label == want {
			ok2++
		}
		if pr.Phase1Label == want {
			ok1++
		}
	}
	if n == 0 {
		return 0, 0, 0
	}
	return float64(ok2) / float64(n), float64(ok1) / float64(n), n
}

func (l *Labeler) fitStandardizer(slots []slot) {
	dim := l.ex.InstanceDim()
	mean := make([]float64, dim)
	for _, s := range slots {
		for i, v := range s.base {
			mean[i] += v
		}
	}
	n := float64(len(slots))
	for i := range mean {
		mean[i] /= n
	}
	invStd := make([]float64, dim)
	for _, s := range slots {
		for i, v := range s.base {
			d := v - mean[i]
			invStd[i] += d * d
		}
	}
	for i := range invStd {
		sd := invStd[i] / n
		if sd < 1e-18 {
			invStd[i] = 0
		} else {
			invStd[i] = 1 / math.Sqrt(sd)
		}
	}
	l.featMean, l.featInvStd = mean, invStd
}

func (l *Labeler) standardize(x []float64) {
	if l.featMean == nil {
		return
	}
	for i := range x {
		x[i] = (x[i] - l.featMean[i]) * l.featInvStd[i]
	}
}

func argmax(xs []float64) (int, float64) {
	best, arg := xs[0], 0
	for i, x := range xs[1:] {
		if x > best {
			best, arg = x, i+1
		}
	}
	return arg, best
}
