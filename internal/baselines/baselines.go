// Package baselines reimplements the five comparison systems of the
// paper's evaluation (Section V-A):
//
//   - AML: the lexical matching core of AgreementMakerLight — an ensemble
//     of string similarity matchers over property names with a high
//     acceptance threshold (unsupervised, name-based).
//   - FCA-Map: formal concept analysis over name tokens — properties are
//     objects, tokens are attributes; matches are extracted from the
//     concept lattice (unsupervised, name-based).
//   - Nezhadi et al.: supervised machine learning over classic string
//     similarity features only (no embeddings, no instances), classified
//     by package ml's AdaBoost.
//   - SemProp (Fernandez et al.): syntactic matcher SynM plus semantic
//     matchers SeMa over word embeddings, with the thresholds the paper
//     uses: 0.2 for SynM, 0.2 for SeMa(−), 0.4 for SeMa(+).
//   - LSH (Duan et al.): instance-based matching with MinHash signatures
//     over value token sets and banding with band size 1.
//
// Every matcher implements the Matcher interface; the supervised one
// additionally implements Trainable. The profiles the paper reports —
// unsupervised matchers with very high precision but limited recall,
// LSH with dataset-dependent trade-offs — emerge from these
// implementations on the synthetic datasets.
package baselines

import (
	"leapme/internal/dataset"
)

// Match is one predicted correspondence with its similarity score.
type Match struct {
	Pair  dataset.Pair
	Score float64
}

// Input bundles what a matcher may look at: the properties to match and
// their instance values.
type Input struct {
	Props []dataset.Property
	// Values maps each property to its instance values. Name-based
	// matchers ignore it.
	Values map[dataset.Key][]string
}

// Matcher finds cross-source property correspondences.
type Matcher interface {
	// Name identifies the matcher in result tables.
	Name() string
	// Match returns predicted correspondences among in.Props.
	Match(in Input) ([]Match, error)
}

// Trainable is implemented by supervised matchers (Nezhadi). Train must be
// called before Match.
type Trainable interface {
	Matcher
	// Train fits the matcher on ground-truth-labeled properties.
	Train(in Input, positives []dataset.Pair, negatives []dataset.Pair) error
}
