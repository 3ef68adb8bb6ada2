package index

import (
	"context"
	"fmt"
	"math"
	"sync"

	"leapme/internal/mathx"
	"leapme/internal/parallel"
)

// LSH geometry of every index Build makes. The signature width comes
// from adaptiveBits. A loaded snapshot keeps the geometry its file
// records.
const (
	// lshTables is the number of hash tables.
	lshTables = 12
	// lshProbes is the number of extra multiprobe buckets per table: the
	// query's signature with its lowest-margin bits flipped one at a time.
	lshProbes = 4
)

// Index answers approximate nearest-neighbour queries over a fixed set
// of vectors with random-hyperplane LSH. Each table hashes a vector to
// a bits-wide signature — bit b is the sign of the projection onto
// hyperplane (table, b) — and buckets vectors by signature. Cosine-
// similar vectors agree on most projections, so they collide with high
// probability in at least one table; a query probes its own bucket per
// table plus the lowest-margin single-bit flips (multiprobe), then ranks
// the gathered candidates by exact cosine. An Index is immutable after
// Build or ReadSnapshot and safe for concurrent readers.
type Index struct {
	dim  int
	seed int64
	// tables, bits and probes are the hashing geometry: Build uses
	// lshTables, adaptiveBits and lshProbes; a loaded snapshot keeps what
	// its file records.
	tables, bits, probes int
	vecs                 [][]float64 // unit-normalized, id order
	// center is the mean of the normalized vectors. Signatures hash
	// *centered* vectors: embedding spaces are anisotropic (two unrelated
	// phrases still share a sizeable cosine with the corpus mean), so
	// hashing raw vectors packs everything into a few buckets. Centering
	// spreads signatures while near-duplicates — which sit close to each
	// other regardless of where the mean is — still collide.
	center []float64
	// planes holds tables*bits hyperplanes; plane (t, b) is
	// planes[t*bits+b]. Seeded per plane, never per build schedule.
	planes [][]float64
	// offsets[p] = dot(center, planes[p]), so the centered projection is
	// dot(v, plane) − offset — one dot per plane instead of materialising
	// v − center per hash. Recomputed from center on load.
	offsets []float64
	// sigs[t][i] is vector i's signature in table t.
	sigs [][]uint32
	// buckets[t] maps a signature to the ids carrying it, ascending.
	buckets []map[uint32][]int

	// scratch pools the per-query visited array and candidate buffer:
	// queries are hot (one per property in blocking) and a fresh
	// len(vecs) allocation each would be mostly GC traffic. Pooled state
	// never leaks into results — visited is re-zeroed via the touched
	// list, ids is truncated — so pooling cannot perturb determinism.
	scratch sync.Pool
}

// lshScratch is the reusable per-query state.
type lshScratch struct {
	seen []bool
	ids  []int
	marg []float64
	flip []int
}

func buildLSH(ctx context.Context, vecs [][]float64, dim int, opts Options) (*Index, error) {
	ix := &Index{
		dim: dim, seed: opts.Seed,
		tables: lshTables, bits: adaptiveBits(len(vecs)), probes: lshProbes,
		vecs: vecs,
	}
	ix.center = mathx.MeanVectors(vecs)
	ix.planes = ix.makePlanes()
	ix.initDerived()

	// Signatures in parallel (chunked) with an ordered merge: sigs[i]
	// depends only on (vecs[i], center, planes), so neither the worker
	// count nor the chunking can change a bit.
	spans := parallel.Chunks(len(vecs), buildChunk)
	chunks, rep, err := parallel.Map(ctx, opts.Workers, len(spans),
		func(i int) string { return fmt.Sprintf("lsh signatures span %d", i) },
		func(i int) ([][]uint32, error) {
			sp := spans[i]
			out := make([][]uint32, 0, sp.Hi-sp.Lo)
			for j := sp.Lo; j < sp.Hi; j++ {
				out = append(out, ix.signatures(vecs[j], nil))
			}
			return out, nil
		})
	if err != nil {
		return nil, err
	}
	if rep != nil && rep.Failed() > 0 {
		return nil, fmt.Errorf("index: lsh signatures failed: %s", rep)
	}
	perItem := make([][]uint32, 0, len(vecs))
	for _, c := range chunks {
		perItem = append(perItem, c...)
	}

	// Transpose to per-table and fill buckets in ascending id order.
	ix.sigs = make([][]uint32, ix.tables)
	ix.buckets = make([]map[uint32][]int, ix.tables)
	for t := 0; t < ix.tables; t++ {
		ix.sigs[t] = make([]uint32, len(vecs))
		ix.buckets[t] = make(map[uint32][]int)
	}
	for i, sig := range perItem {
		for t, s := range sig {
			ix.sigs[t][i] = s
			ix.buckets[t][s] = append(ix.buckets[t][s], i)
		}
	}
	return ix, nil
}

// initDerived computes the state derived from (center, planes) — the
// projection offsets and the scratch pool. Called by both buildLSH and
// the deserializer.
func (ix *Index) initDerived() {
	ix.offsets = make([]float64, len(ix.planes))
	for p, plane := range ix.planes {
		ix.offsets[p] = mathx.Dot(ix.center, plane)
	}
	ix.scratch.New = func() any {
		return &lshScratch{
			seen: make([]bool, len(ix.vecs)),
			marg: make([]float64, ix.tables*ix.bits),
			flip: make([]int, ix.bits),
		}
	}
}

// makePlanes draws every hyperplane from its own SeedStream-derived RNG,
// so plane p is a pure function of (seed, p) — not of how many planes
// some worker generated before it.
func (ix *Index) makePlanes() [][]float64 {
	planes := make([][]float64, ix.tables*ix.bits)
	for p := range planes {
		planes[p] = make([]float64, ix.dim)
		mathx.FillNormal(planes[p], 0, 1, mathx.NewRand(parallel.SeedStream(ix.seed, p)))
	}
	return planes
}

// signatures computes the signature of a normalized vector for every
// table; the centering is folded into the precomputed offsets. When
// margins is non-nil it must have length tables*bits and receives
// |projection| per plane — the multiprobe flip priorities.
func (ix *Index) signatures(q []float64, margins []float64) []uint32 {
	sigs := make([]uint32, ix.tables)
	for t := 0; t < ix.tables; t++ {
		var sig uint32
		for b := 0; b < ix.bits; b++ {
			p := t*ix.bits + b
			proj := mathx.Dot(q, ix.planes[p]) - ix.offsets[p]
			if proj >= 0 {
				sig |= 1 << uint(b)
			}
			if margins != nil {
				margins[p] = math.Abs(proj)
			}
		}
		sigs[t] = sig
	}
	return sigs
}

// Query returns up to k candidates nearest q by cosine similarity,
// best-first with ties broken by ascending id. q need not be
// normalized.
func (ix *Index) Query(q []float64, k int) []Candidate {
	if k <= 0 || len(q) != ix.dim {
		return nil
	}
	nq := mathx.Normalized(q)
	sc := ix.scratch.Get().(*lshScratch)
	sigs := ix.signatures(nq, sc.marg)

	ids := sc.ids[:0]
	gather := func(t int, sig uint32) {
		for _, id := range ix.buckets[t][sig] {
			if !sc.seen[id] {
				sc.seen[id] = true
				ids = append(ids, id)
			}
		}
	}
	probes := min(ix.probes, ix.bits)
	for t := 0; t < ix.tables; t++ {
		gather(t, sigs[t])
		if probes == 0 {
			continue
		}
		// Query-directed multiprobe: flip the bits whose projections were
		// closest to the hyperplane — the likeliest to differ for a true
		// neighbour. A manual partial selection (probes ≪ bits) with the
		// bit position as tie-break keeps this deterministic and off the
		// reflection-based sort path.
		m := sc.marg[t*ix.bits : (t+1)*ix.bits]
		flip := sc.flip
		for b := range flip {
			flip[b] = b
		}
		for sel := 0; sel < probes; sel++ {
			best := sel
			for j := sel + 1; j < len(flip); j++ {
				//lint:allow floateq selection tie-break must be an exact total order; a tolerance comparator is not an order at all
				if m[flip[j]] < m[flip[best]] || (m[flip[j]] == m[flip[best]] && flip[j] < flip[best]) {
					best = j
				}
			}
			flip[sel], flip[best] = flip[best], flip[sel]
			gather(t, sigs[t]^(1<<uint(flip[sel])))
		}
	}
	out := rank(ix.vecs, nq, ids, k)
	for _, id := range ids {
		sc.seen[id] = false
	}
	sc.ids = ids[:0]
	ix.scratch.Put(sc)
	return out
}

// Len returns the number of indexed vectors.
func (ix *Index) Len() int { return len(ix.vecs) }

// Dim returns the vector dimensionality.
func (ix *Index) Dim() int { return ix.dim }

// Vector returns the stored (unit-normalized) vector for id. The
// returned slice must not be modified.
func (ix *Index) Vector(id int) []float64 { return ix.vecs[id] }
