package baselines

import (
	"errors"
	"fmt"

	"leapme/internal/dataset"
	"leapme/internal/ml"
	"leapme/internal/text"
)

// Nezhadi reimplements the machine-learning ontology-alignment baseline of
// Nezhadi, Shadgar & Osareh: a classic classifier over multiple string
// similarity measures between element names. As in the original (and as
// the paper stresses), it uses neither instance data nor embeddings —
// its feature vector is exactly the string-distance block LEAPME shares
// (Table I rows 8–15) plus token-level overlap similarities. The
// classifier is AdaBoost with 60 rounds: the original evaluated several
// classic learners and found boosted ensembles strongest.
type Nezhadi struct {
	// Threshold converts probabilities to decisions (default 0.5).
	Threshold float64

	boost *ml.AdaBoost // nil until Train succeeds
}

// NewNezhadi returns the baseline at the default threshold.
func NewNezhadi() *Nezhadi {
	return &Nezhadi{Threshold: 0.5}
}

// Name implements Matcher.
func (n *Nezhadi) Name() string { return "Nezhadi" }

// nezhadiName is what the features need about one property name,
// computed once per property rather than once per pair.
type nezhadiName struct {
	norm string           // normalised name
	toks []string         // name tokens
	prof text.NameProfile // profile of norm for the shared distance block
}

// nezhadiNames profiles every property name, keyed by property.
func nezhadiNames(props []dataset.Property) map[dataset.Key]*nezhadiName {
	out := make(map[dataset.Key]*nezhadiName, len(props))
	for _, p := range props {
		norm := text.NormalizeName(p.Name)
		out[p.Key()] = &nezhadiName{norm: norm, toks: text.Tokenize(p.Name), prof: text.NewNameProfile(norm)}
	}
	return out
}

// nezhadiFeatures computes the 10 string-similarity features of a pair:
// the eight name distances LEAPME shares (text.NameDistances), then the
// token-overlap and longest-common-subsequence dissimilarities.
func nezhadiFeatures(a, b *nezhadiName, es *text.EditScratch) []float64 {
	f := make([]float64, text.NumNameDistances+2)
	text.NameDistances(f, &a.prof, &b.prof, es)
	f[text.NumNameDistances] = 1 - tokenJaccard(a.toks, b.toks)
	f[text.NumNameDistances+1] = 1 - lcsSimilarity(a.norm, b.norm)
	return f
}

// Train implements Trainable.
func (n *Nezhadi) Train(in Input, positives, negatives []dataset.Pair) error {
	if len(positives) == 0 || len(negatives) == 0 {
		return errors.New("baselines: Nezhadi needs both positive and negative examples")
	}
	names := nezhadiNames(in.Props)
	var es text.EditScratch
	var xs [][]float64
	var ys []int
	add := func(pairs []dataset.Pair, label int) error {
		for _, pr := range pairs {
			a, okA := names[pr.A]
			b, okB := names[pr.B]
			if !okA || !okB {
				return fmt.Errorf("baselines: training pair references unknown property %v/%v", pr.A, pr.B)
			}
			xs = append(xs, nezhadiFeatures(a, b, &es))
			ys = append(ys, label)
		}
		return nil
	}
	if err := add(positives, 1); err != nil {
		return err
	}
	if err := add(negatives, 0); err != nil {
		return err
	}
	boost := &ml.AdaBoost{Rounds: 60}
	if err := boost.Fit(xs, ys); err != nil {
		return fmt.Errorf("baselines: Nezhadi training: %w", err)
	}
	n.boost = boost
	return nil
}

// Match implements Matcher.
func (n *Nezhadi) Match(in Input) ([]Match, error) {
	if n.boost == nil {
		return nil, errors.New("baselines: Nezhadi.Match before Train")
	}
	th := n.Threshold
	if th <= 0 {
		th = 0.5
	}
	names := nezhadiNames(in.Props)
	var es text.EditScratch
	var out []Match
	dataset.CrossSourcePairs(in.Props, func(a, b dataset.Property) bool {
		p := n.boost.PredictProba(nezhadiFeatures(names[a.Key()], names[b.Key()], &es))
		if p >= th {
			out = append(out, Match{
				Pair:  dataset.Pair{A: a.Key(), B: b.Key()}.Canonical(),
				Score: p,
			})
		}
		return true
	})
	return out, nil
}
