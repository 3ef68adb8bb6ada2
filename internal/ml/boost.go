package ml

import (
	"math"
	"sort"
)

// AdaBoost implements discrete AdaBoost over depth-1 decision stumps.
type AdaBoost struct {
	// Rounds is the number of boosting rounds (default 50).
	Rounds int

	stumps []stump
	alphas []float64
}

type stump struct {
	feature int
	thresh  float64
	// polarity +1 predicts class 1 for x > thresh, -1 the reverse.
	polarity int
}

func (s stump) predict(x []float64) int { // returns ±1
	v := -1
	if x[s.feature] > s.thresh {
		v = 1
	}
	return v * s.polarity
}

// Fit trains on feature vectors xs with labels ys in {0, 1}.
func (a *AdaBoost) Fit(xs [][]float64, ys []int) error {
	dim, err := validate(xs, ys)
	if err != nil {
		return err
	}
	if a.Rounds <= 0 {
		a.Rounds = 50
	}
	a.stumps = a.stumps[:0]
	a.alphas = a.alphas[:0]

	n := len(xs)
	// Labels in ±1.
	y := make([]int, n)
	for i, v := range ys {
		y[i] = 2*v - 1
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}

	// Pre-sort example indices per feature once.
	order := make([][]int, dim)
	for f := 0; f < dim; f++ {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(p, q int) bool { return xs[idx[p]][f] < xs[idx[q]][f] })
		order[f] = idx
	}

	for round := 0; round < a.Rounds; round++ {
		best, bestErr := stump{}, math.Inf(1)
		for f := 0; f < dim; f++ {
			idx := order[f]
			// err(threshold below all) for polarity +1: predicting +1 for
			// everything → error = Σ w[y=-1].
			errPlus := 0.0
			for i := 0; i < n; i++ {
				if y[i] == -1 {
					errPlus += w[i]
				}
			}
			// Sweep thresholds; moving example idx[k] to the "≤ thresh"
			// side flips its prediction from +1 to -1 under polarity +1.
			e := errPlus
			for k := 0; k < n; k++ {
				i := idx[k]
				if y[i] == -1 {
					e -= w[i]
				} else {
					e += w[i]
				}
				//lint:allow floateq identical feature values admit no threshold between them; exact identity is the point
				if k+1 < n && xs[idx[k]][f] == xs[idx[k+1]][f] {
					continue
				}
				thresh := xs[i][f]
				if k+1 < n {
					thresh = (xs[i][f] + xs[idx[k+1]][f]) / 2
				}
				if e < bestErr {
					bestErr = e
					best = stump{feature: f, thresh: thresh, polarity: 1}
				}
				if 1-e < bestErr {
					bestErr = 1 - e
					best = stump{feature: f, thresh: thresh, polarity: -1}
				}
			}
		}
		const eps = 1e-10
		bestErr = math.Max(math.Min(bestErr, 1-eps), eps)
		alpha := 0.5 * math.Log((1-bestErr)/bestErr)
		a.stumps = append(a.stumps, best)
		a.alphas = append(a.alphas, alpha)
		if bestErr < eps*2 {
			break // perfect stump; further rounds are redundant
		}
		// Reweight.
		var sum float64
		for i := range w {
			w[i] *= math.Exp(-alpha * float64(y[i]*best.predict(xs[i])))
			sum += w[i]
		}
		for i := range w {
			w[i] /= sum
		}
	}
	return nil
}

// PredictProba returns the estimated probability of class 1, squashing
// the boosted margin through a logistic link; 0.5 before Fit.
func (a *AdaBoost) PredictProba(x []float64) float64 {
	if len(a.stumps) == 0 {
		return 0.5
	}
	var score float64
	for i, s := range a.stumps {
		score += a.alphas[i] * float64(s.predict(x))
	}
	return 1 / (1 + math.Exp(-2*score))
}
