package core

import (
	"fmt"
	"sort"

	"leapme/internal/dataset"
	"leapme/internal/text"
)

// BlockContribution is one feature group's influence on a match decision.
type BlockContribution struct {
	// Block names the feature group ("name-embedding", ...).
	Block string
	// Delta is score(full) − score(with this block neutralised): positive
	// means the block's evidence pushed the pair *toward* matching.
	Delta float64
}

// Explanation attributes a pair's similarity score to feature groups.
type Explanation struct {
	A, B  dataset.Key
	Score float64
	// Contributions, sorted by descending |Delta|.
	Contributions []BlockContribution
}

// String renders the explanation for CLI output.
func (e Explanation) String() string {
	s := fmt.Sprintf("%s ~ %s: score %.3f", e.A, e.B, e.Score)
	for _, c := range e.Contributions {
		s += fmt.Sprintf("\n  %-20s %+.3f", c.Block, c.Delta)
	}
	return s
}

// Explain scores the pair and attributes the decision to feature groups
// by ablation: each block in turn is neutralised (set to the training
// mean, i.e. zero in standardised space) and the score delta recorded.
// Blocks whose evidence argues for the match have positive deltas. The
// full vector and every probe are scored in one kernel batch.
func (m *Matcher) Explain(a, b dataset.Key) (Explanation, error) {
	if m.sc == nil {
		return Explanation{}, fmt.Errorf("core: matcher is not trained")
	}
	pa, err := m.prop(a)
	if err != nil {
		return Explanation{}, err
	}
	pb, err := m.prop(b)
	if err != nil {
		return Explanation{}, err
	}
	// Row 0 of the batch is the pair vector, row 1+j the vector with
	// block j neutralised.
	dim, blocks := m.pairer.Dim(), m.pairer.Blocks()
	n := 1 + len(blocks)
	xs := make([]float64, n*dim)
	full := xs[:dim]
	var es text.EditScratch
	m.pairer.PairVectorScratch(full, pa, pb, &es)
	m.standardize(full)
	for j, blk := range blocks {
		probe := xs[(1+j)*dim : (2+j)*dim]
		copy(probe, full)
		clear(probe[blk.Lo:blk.Hi]) // standardised space: 0 = training mean
	}
	kern := m.sc.kern
	classes := kern.OutDim()
	probs := make([]float64, n*classes)
	kern.ForwardBatch(probs, xs, n, make([]float64, kern.BatchScratchLen(n)))
	score := probs[1]
	out := Explanation{A: a, B: b, Score: score}
	for j, blk := range blocks {
		out.Contributions = append(out.Contributions, BlockContribution{
			Block: blk.Name,
			Delta: score - probs[(1+j)*classes+1],
		})
	}
	sort.Slice(out.Contributions, func(i, j int) bool {
		di, dj := out.Contributions[i].Delta, out.Contributions[j].Delta
		if di < 0 {
			di = -di
		}
		if dj < 0 {
			dj = -dj
		}
		return di > dj
	})
	return out, nil
}
