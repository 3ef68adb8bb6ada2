// Package ml implements the classifier of the Nezhadi et al. baseline
// (ontology alignment with machine learning over string-similarity
// features): discrete AdaBoost over decision stumps, the boosted ensemble
// the original found strongest among the classic learners it compared. It
// is a binary classifier exposing a positive-class probability, mirroring
// LEAPME's use of the network's positive output as a similarity score.
package ml

import (
	"errors"
	"fmt"
)

// validate checks Fit's preconditions: a non-empty, rectangular,
// non-zero-dimensional training set with one {0, 1} label per example.
func validate(xs [][]float64, ys []int) (dim int, err error) {
	if len(xs) == 0 {
		return 0, errors.New("ml: empty training set")
	}
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("ml: %d examples but %d labels", len(xs), len(ys))
	}
	dim = len(xs[0])
	if dim == 0 {
		return 0, errors.New("ml: zero-dimensional features")
	}
	for i, x := range xs {
		if len(x) != dim {
			return 0, fmt.Errorf("ml: example %d has dim %d, want %d", i, len(x), dim)
		}
		if ys[i] != 0 && ys[i] != 1 {
			return 0, fmt.Errorf("ml: label %d of example %d not in {0,1}", ys[i], i)
		}
	}
	return dim, nil
}
