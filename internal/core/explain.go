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
// Blocks whose evidence argues for the match have positive deltas.
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
	full := make([]float64, m.pairer.Dim())
	var es text.EditScratch
	m.pairer.PairVectorScratch(full, pa, pb, &es)
	m.standardize(full)
	kern, scratch := m.sc.kern, m.sc.scratch
	score := kern.PositiveScore(full, scratch)
	out := Explanation{A: a, B: b, Score: score}
	probe := make([]float64, len(full))
	for _, blk := range m.pairer.Blocks() {
		copy(probe, full)
		for i := blk.Lo; i < blk.Hi; i++ {
			probe[i] = 0 // standardised space: 0 = training mean
		}
		s := kern.PositiveScore(probe, scratch)
		out.Contributions = append(out.Contributions, BlockContribution{
			Block: blk.Name,
			Delta: score - s,
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
