package blocking

import (
	"context"
	"fmt"

	"leapme/internal/dataset"
	"leapme/internal/embedding"
	"leapme/internal/index"
	"leapme/internal/parallel"
)

// ANNBlocker proposes, for each property, its K nearest other-source
// properties by name-embedding cosine — the same proposal rule as
// EmbeddingBlocker, but answered from an approximate-nearest-neighbour
// index instead of a full pairwise scan. EmbeddingBlocker touches every
// cross-source pair per call (quadratic); ANNBlocker builds the index
// once (near-linear) and probes it per property (sub-linear), keeping
// the exact blocker available as a recall oracle for benchmarks.
type ANNBlocker struct {
	Store *embedding.Store
	// K nearest neighbours per property (default 10).
	K int
	// MinSim drops neighbours below this cosine similarity (default 0.3).
	MinSim float64
	// Opts configures the underlying index (seed, workers).
	Opts index.Options
	// Snapshot, when non-nil, serves queries from a prebuilt index
	// instead of building one per call. Candidates falls back to an
	// ephemeral build for any property not present in the snapshot, so a
	// stale snapshot degrades to a fresh build, never to wrong answers.
	Snapshot *index.Snapshot
}

// NewANNBlocker returns an ANNBlocker matching NewEmbeddingBlocker's
// proposal parameters.
func NewANNBlocker(store *embedding.Store, opts index.Options) *ANNBlocker {
	return &ANNBlocker{Store: store, K: 10, MinSim: 0.3, Opts: opts}
}

// Name implements Blocker.
func (b *ANNBlocker) Name() string { return "ann-lsh" }

// Candidates implements Blocker.
func (b *ANNBlocker) Candidates(props []dataset.Property) []dataset.Pair {
	// The Blocker interface is context-free; index building honours
	// cancellation, so the context-aware variant is the real
	// implementation and this adapter supplies the neutral context.
	//lint:allow ctxflow Blocker.Candidates has no ctx parameter; CandidatesCtx is the context-aware entry point
	pairs, err := b.CandidatesCtx(context.Background(), props)
	if err != nil {
		// Build errors here mean empty or malformed inputs (no
		// properties, zero-dim store); propose nothing rather than panic.
		return nil
	}
	return pairs
}

// CandidatesCtx is Candidates with cancellation: ctx aborts both the
// index build and the per-property queries.
func (b *ANNBlocker) CandidatesCtx(ctx context.Context, props []dataset.Property) ([]dataset.Pair, error) {
	if len(props) == 0 {
		return nil, nil
	}
	k := b.K
	if k <= 0 {
		k = 10
	}

	snap := b.Snapshot
	if snap == nil || !SnapshotCovers(snap, props) {
		var err error
		snap, err = index.BuildSnapshot(ctx, b.Store, props, b.Opts)
		if err != nil {
			return nil, err
		}
	}

	// Queries run in parallel over property *spans*, not single
	// properties: per-unit dispatch costs more than one index probe, so
	// chunking is what lets the sub-linear query path actually beat the
	// exact scan. Each query over-fetches: the K nearest overall may be
	// dominated by same-source properties (which blocking must not pair),
	// so ask for enough to survive the source filter before truncating to
	// K other-source hits.
	fetch := 2*k + 4
	spans := parallel.Chunks(len(props), 256)
	perSpan, rep, err := parallel.Map(ctx, b.Opts.Workers, len(spans),
		func(i int) string { return fmt.Sprintf("ann query span %d", i) },
		func(i int) ([]dataset.Pair, error) {
			var pairs []dataset.Pair
			for _, p := range props[spans[i].Lo:spans[i].Hi] {
				id, ok := snap.Lookup(p.Key())
				if !ok {
					continue
				}
				kept := 0
				for _, c := range snap.Neighbors(id, fetch) {
					if kept >= k || c.Sim < b.MinSim {
						break // Neighbors is sorted best-first
					}
					nk := snap.Keys[c.ID]
					if nk.Source == p.Source {
						continue
					}
					pairs = append(pairs, dataset.Pair{A: p.Key(), B: nk}.Canonical())
					kept++
				}
			}
			return pairs, nil
		})
	if err != nil {
		return nil, err
	}
	if rep != nil && rep.Failed() > 0 {
		return nil, fmt.Errorf("blocking: ann queries failed: %s", rep)
	}

	pairSet := map[dataset.Pair]bool{}
	for _, pairs := range perSpan {
		for _, p := range pairs {
			pairSet[p] = true
		}
	}
	return sortedPairs(pairSet), nil
}

// SnapshotCovers reports whether every property is indexed in snap —
// i.e. whether an ANNBlocker with this Snapshot will serve from it
// rather than fall back to an ephemeral build. Exported so the serving
// layer can count snapshot hits versus per-request builds.
func SnapshotCovers(snap *index.Snapshot, props []dataset.Property) bool {
	for _, p := range props {
		if _, ok := snap.Lookup(p.Key()); !ok {
			return false
		}
	}
	return true
}
