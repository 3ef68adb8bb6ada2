package index

import (
	"context"
	"errors"
	"fmt"

	"leapme/internal/mathx"
	"leapme/internal/parallel"
)

// Candidate is one approximate-nearest-neighbour query result. Sim is the
// exact cosine similarity between the query and the candidate (candidates
// are re-ranked exactly after retrieval; only the *set* is approximate).
type Candidate struct {
	ID  int
	Sim float64
}

// Options configures Build.
type Options struct {
	// Seed drives the hyperplane draws. Same seed + same vectors →
	// bit-identical index.
	Seed int64
	// Workers parallelises the build (≤0 = GOMAXPROCS). The result is
	// bit-identical for every value.
	Workers int
}

// Build constructs an index over vecs. All vectors must share one
// non-zero dimension; they are copied and unit-normalized internally, so
// the caller's slices are never retained or modified. Building is
// parallel across Options.Workers but bit-deterministic for any worker
// count.
func Build(ctx context.Context, vecs [][]float64, opts Options) (*Index, error) {
	if len(vecs) == 0 {
		return nil, errors.New("index: no vectors")
	}
	dim := len(vecs[0])
	if dim == 0 {
		return nil, errors.New("index: zero-dimensional vectors")
	}
	for i, v := range vecs {
		if len(v) != dim {
			return nil, fmt.Errorf("index: vector %d has dim %d, want %d", i, len(v), dim)
		}
	}
	normed, err := normalizeAll(ctx, opts.Workers, vecs)
	if err != nil {
		return nil, err
	}
	return buildLSH(ctx, normed, dim, opts)
}

// adaptiveBits picks an LSH signature width for a corpus of n vectors so
// expected bucket occupancy (n / 2^bits) lands around 4: wide enough
// that similar vectors keep colliding, narrow enough that buckets stay
// sub-linear as the corpus grows.
func adaptiveBits(n int) int {
	bits := 6
	for n > 4<<bits && bits < 14 {
		bits++
	}
	return bits
}

// buildChunk is the span size parallel build stages hand to one worker
// unit at a time. Per-unit dispatch (a channel round-trip plus a label)
// costs far more than normalizing or hashing one vector, so units are
// spans, not items; the chunk structure depends only on n, never on the
// worker count, keeping the ordered merge bit-deterministic.
const buildChunk = 512

// normalizeAll unit-normalizes copies of vecs in parallel with an ordered
// merge, so the result is independent of the worker count. The copies
// share one contiguous backing array: rank() dots the query against
// hundreds of gathered vectors per query, and id-indexed rows of a flat
// array cost one cache line walk instead of a pointer chase per row.
func normalizeAll(ctx context.Context, workers int, vecs [][]float64) ([][]float64, error) {
	if len(vecs) == 0 {
		return nil, nil
	}
	dim := len(vecs[0])
	flat := make([]float64, len(vecs)*dim)
	out := make([][]float64, len(vecs))
	for i := range out {
		out[i] = flat[i*dim : (i+1)*dim : (i+1)*dim]
	}
	spans := parallel.Chunks(len(vecs), buildChunk)
	_, rep, err := parallel.Map(ctx, workers, len(spans),
		func(i int) string { return fmt.Sprintf("normalize span %d", i) },
		func(i int) (struct{}, error) {
			sp := spans[i]
			// Disjoint spans write disjoint rows of flat — no worker ever
			// touches another's slots, and row j's value depends only on
			// vecs[j], so the merge order cannot matter.
			for j := sp.Lo; j < sp.Hi; j++ {
				copy(out[j], vecs[j])
				mathx.NormalizeInPlace(out[j])
			}
			return struct{}{}, nil
		})
	if err != nil {
		return nil, err
	}
	if rep != nil && rep.Failed() > 0 {
		return nil, fmt.Errorf("index: normalization failed: %s", rep)
	}
	return out, nil
}

// rank computes exact cosine similarities of the (deduplicated) candidate
// ids against the normalized query, orders them best-first with the
// id tie-break, and truncates to k (k < 0 keeps everything). It selects
// through a bounded worst-first heap — O(n log k), no reflection — because
// it sits on every query's hot path.
func rank(vecs [][]float64, q []float64, ids []int, k int) []Candidate {
	if k < 0 || k > len(ids) {
		k = len(ids)
	}
	if k == 0 {
		return nil
	}
	var beam candHeap
	for _, id := range ids {
		c := Candidate{ID: id, Sim: mathx.Dot(q, vecs[id])}
		if beam.len() < k {
			beam.push(c)
		} else if worse(beam.peek(), c) {
			beam.pop()
			beam.push(c)
		}
	}
	out := make([]Candidate, beam.len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = beam.pop()
	}
	return out
}

// worse reports whether a ranks strictly after b in (sim desc, id asc)
// order, the total order every ranking here uses.
func worse(a, b Candidate) bool {
	//lint:allow floateq heap ordering must be an exact total order; a tolerance comparator breaks the heap invariant
	if a.Sim != b.Sim {
		return a.Sim < b.Sim
	}
	return a.ID > b.ID
}

// candHeap is a worst-first binary heap of Candidates: rank's bounded
// beam evicts its weakest member. The comparator is the exact (sim, id)
// total order, so the heap's shape is deterministic.
type candHeap struct{ s []Candidate }

func (h *candHeap) len() int        { return len(h.s) }
func (h *candHeap) peek() Candidate { return h.s[0] }

func (h *candHeap) push(c Candidate) {
	h.s = append(h.s, c)
	i := len(h.s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !worse(h.s[i], h.s[p]) {
			break
		}
		h.s[i], h.s[p] = h.s[p], h.s[i]
		i = p
	}
}

func (h *candHeap) pop() Candidate {
	top := h.s[0]
	last := len(h.s) - 1
	h.s[0] = h.s[last]
	h.s = h.s[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < last && worse(h.s[l], h.s[worst]) {
			worst = l
		}
		if r < last && worse(h.s[r], h.s[worst]) {
			worst = r
		}
		if worst == i {
			break
		}
		h.s[i], h.s[worst] = h.s[worst], h.s[i]
		i = worst
	}
	return top
}
