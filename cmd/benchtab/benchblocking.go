package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"leapme/internal/blocking"
	"leapme/internal/dataset"
	"leapme/internal/domain"
	"leapme/internal/index"
)

// blockingRow is one (corpus size, blocker) measurement in
// BENCH_blocking.json. Speedup compares total candidate-generation time
// (index build + all queries) against the exact EmbeddingBlocker scan on
// the same corpus; QuerySpeedup assumes a prebuilt snapshot (the serving
// path) and compares query time alone.
type blockingRow struct {
	Size             int     `json:"size"`
	Blocker          string  `json:"blocker"`
	BuildMs          float64 `json:"build_ms,omitempty"`
	QueryMs          float64 `json:"query_ms"`
	TotalMs          float64 `json:"total_ms"`
	Candidates       int     `json:"candidates"`
	PairCompleteness float64 `json:"pair_completeness"`
	RecallVsExact    float64 `json:"recall_vs_exact"`
	ReductionRatio   float64 `json:"reduction_ratio"`
	Speedup          float64 `json:"speedup,omitempty"`
	QuerySpeedup     float64 `json:"query_speedup,omitempty"`
}

// benchBlocking measures the ANN retrieval layer against the exact
// embedding blocker (the recall oracle) across corpus sizes: pair
// completeness versus ground truth, recall versus the exact scan's
// candidate set, and the candidate-generation speedup the index buys.
func benchBlocking(out string, seed int64, dim, workers int, sizes []int, stamp bool) error {
	start := time.Now()
	fmt.Fprintf(os.Stderr, "bench blocking: training embeddings (dim=%d)...\n", dim)
	store, err := trainStore(seed, dim)
	if err != nil {
		return err
	}

	rep := benchReport{
		Suite:       "blocking",
		Go:          runtime.Version(),
		DegradedEnv: runtime.GOMAXPROCS(0) == 1,
		Config: map[string]any{
			"seed":          seed,
			"embedding_dim": dim,
			"sizes":         sizes,
			"gomaxprocs":    runtime.GOMAXPROCS(0),
			"k":             10,
			"synonym_rate":  0.35,
		},
	}
	if stamp {
		rep.Timestamp = time.Now().UTC().Format(time.RFC3339)
	}

	var rows []blockingRow
	ctx := context.Background()
	for _, size := range sizes {
		cfg := dataset.LargeConfig(domain.Cameras(), size, 12, 0.35, seed)
		d, err := dataset.Generate(cfg)
		if err != nil {
			return err
		}
		props := d.Props
		fmt.Fprintf(os.Stderr, "bench blocking: corpus %d → %d properties, %d truth pairs\n",
			size, len(props), len(dataset.MatchingPairs(props)))

		// Exact oracle: one timed full scan. Quadratic, so one run is both
		// representative and all we can afford at the top sizes.
		exact := blocking.NewEmbeddingBlocker(store)
		t0 := time.Now()
		exactPairs := exact.Candidates(props)
		exactMs := msSince(t0)
		exactQ := blocking.Measure(exactPairs, props)
		exactSet := map[dataset.Pair]bool{}
		for _, p := range exactPairs {
			exactSet[p] = true
		}
		rows = append(rows, blockingRow{
			Size: len(props), Blocker: "exact", QueryMs: exactMs, TotalMs: exactMs,
			Candidates:       len(exactPairs),
			PairCompleteness: exactQ.PairCompleteness,
			RecallVsExact:    1,
			ReductionRatio:   exactQ.ReductionRatio,
		})

		opts := index.Options{Seed: seed, Workers: workers}
		t0 = time.Now()
		snap, err := index.BuildSnapshot(ctx, store, props, opts)
		if err != nil {
			return err
		}
		buildMs := msSince(t0)

		ann := blocking.NewANNBlocker(store, opts)
		ann.Snapshot = snap
		t0 = time.Now()
		cands, err := ann.CandidatesCtx(ctx, props)
		if err != nil {
			return err
		}
		queryMs := msSince(t0)

		q := blocking.Measure(cands, props)
		overlap := 0
		for _, p := range cands {
			if exactSet[p] {
				overlap++
			}
		}
		recall := 0.0
		if len(exactPairs) > 0 {
			recall = float64(overlap) / float64(len(exactPairs))
		}
		row := blockingRow{
			Size: len(props), Blocker: ann.Name(),
			BuildMs: buildMs, QueryMs: queryMs, TotalMs: buildMs + queryMs,
			Candidates:       len(cands),
			PairCompleteness: q.PairCompleteness,
			RecallVsExact:    recall,
			ReductionRatio:   q.ReductionRatio,
		}
		if row.TotalMs > 0 {
			row.Speedup = exactMs / row.TotalMs
		}
		if queryMs > 0 {
			row.QuerySpeedup = exactMs / queryMs
		}
		rows = append(rows, row)
		fmt.Fprintf(os.Stderr, "  %-10s PC=%.3f recall=%.3f RR=%.3f build=%.0fms query=%.0fms speedup=%.1fx\n",
			row.Blocker, row.PairCompleteness, row.RecallVsExact, row.ReductionRatio,
			row.BuildMs, row.QueryMs, row.Speedup)
	}
	rep.Blocking = rows

	// Derived gate values: the ANN row at the largest corpus — what the
	// recall-vs-speedup claim in EXPERIMENTS.md rests on.
	var best blockingRow
	for _, r := range rows {
		if r.Blocker != "exact" && r.Size >= best.Size {
			best = r
		}
	}
	rep.Derived = map[string]float64{
		"best_pair_completeness": best.PairCompleteness,
		"best_recall_vs_exact":   best.RecallVsExact,
		"best_speedup":           best.Speedup,
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench blocking: wrote %s in %v\n", out, time.Since(start).Round(time.Millisecond))
	return nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
