package embedding

import (
	"math"
	"sort"
)

// Cooccurrence holds the sparse, symmetric word-word co-occurrence counts
// GloVe trains on. Counts are weighted by 1/d for a pair of words at
// distance d inside the context window, as in the reference implementation.
// The unordered pairs {a ≤ b} are stored row by row in ascending (a, b)
// order.
type Cooccurrence struct {
	rowStart []int     // row a's cells are [rowStart[a], rowStart[a+1])
	col      []int     // b of each cell
	val      []float64 // accumulated count of each cell
}

// rowWeight is one window contribution to row a's cell {a, b}: the two
// words stood dist positions apart, so it weighs 1/dist.
type rowWeight struct {
	b, dist int32
}

// CountCooccurrences scans sentences with a symmetric window of the given
// size and accumulates distance-weighted counts for in-vocabulary pairs.
// Out-of-vocabulary words are dropped before windowing. Each cell sums
// its contributions in corpus order: they are bucketed by row with a
// stable counting sort, then accumulated row by row from zero.
func CountCooccurrences(sentences [][]string, vocab *Vocab, window int) *Cooccurrence {
	if window < 1 {
		window = 1
	}
	n := vocab.Size()
	tokens := 0
	for _, sent := range sentences {
		tokens += len(sent)
	}
	ids := make([]int32, 0, tokens) // in-vocabulary ids, sentence after sentence
	ends := make([]int, 0, len(sentences))
	for _, sent := range sentences {
		for _, w := range sent {
			if id, ok := vocab.ID(w); ok {
				ids = append(ids, int32(id))
			}
		}
		ends = append(ends, len(ids))
	}
	forEachPair := func(fn func(a, b, dist int32)) {
		lo := 0
		for _, end := range ends {
			for i := lo; i < end; i++ {
				hi := min(i+window, end-1)
				for j := i + 1; j <= hi; j++ {
					a, b := ids[i], ids[j]
					if a > b {
						a, b = b, a
					}
					fn(a, b, int32(j-i))
				}
			}
			lo = end
		}
	}

	start := make([]int, n+1) // row a's contributions are buckets[start[a]:start[a+1]]
	forEachPair(func(a, _, _ int32) { start[a+1]++ })
	for a := 0; a < n; a++ {
		start[a+1] += start[a]
	}
	buckets := make([]rowWeight, start[n])
	next := append([]int(nil), start[:n]...) // each row's fill cursor
	forEachPair(func(a, b, dist int32) {
		buckets[next[a]] = rowWeight{b, dist}
		next[a]++
	})

	co := &Cooccurrence{rowStart: make([]int, n+1)}
	acc := make([]float64, n)
	seen := make([]bool, n)
	var touched []int
	for a := 0; a < n; a++ {
		touched = touched[:0]
		for _, c := range buckets[start[a]:start[a+1]] {
			if !seen[c.b] {
				seen[c.b] = true
				touched = append(touched, int(c.b))
			}
			acc[c.b] += 1 / float64(c.dist)
		}
		sort.Ints(touched)
		for _, b := range touched {
			co.col = append(co.col, b)
			co.val = append(co.val, acc[b])
			acc[b], seen[b] = 0, false
		}
		co.rowStart[a+1] = len(co.col)
	}
	return co
}

// NumPairs returns the number of distinct unordered co-occurring pairs.
func (co *Cooccurrence) NumPairs() int { return len(co.col) }

// example is one co-occurrence cell {i ≤ j} as a GloVe training example,
// with the terms of the loss that stay fixed during training computed
// once: the weight fx = f(x) and the target logx = log x.
type example struct {
	i, j int
	fx   float64
	logx float64
}

// examples returns the cells as training examples in ascending (i, j)
// order, the order a fixed seed's shuffles permute.
func (co *Cooccurrence) examples(xmax, alpha float64) []example {
	out := make([]example, len(co.col))
	for a := 0; a+1 < len(co.rowStart); a++ {
		for c := co.rowStart[a]; c < co.rowStart[a+1]; c++ {
			x := co.val[c]
			out[c] = example{i: a, j: co.col[c], fx: weightFn(x, xmax, alpha), logx: math.Log(x)}
		}
	}
	return out
}
