package eval

import (
	"context"
	"math"
	"sync"
	"testing"

	"leapme/internal/baselines"
	"leapme/internal/domain"
	"leapme/internal/features"
)

func newNameBaseline() baselines.Matcher { return baselines.NewNezhadi() }

// TestEvalStatsDeterminismAcrossWorkerCounts: concurrent repetitions must
// report the same Stats as the serial loop, bit for bit — each run's
// randomness is a pure function of (master seed, run index) and results
// are collected in run order — and so must every matcher worker count,
// the default 0 (all CPUs) included.
func TestEvalStatsDeterminismAcrossWorkerCounts(t *testing.T) {
	d := tinyDataset(t, domain.Cameras(), 21)
	at := func(workers, matcherWorkers int) Stats {
		h := fastHarness(t)
		h.Runs = 4
		h.Workers = workers
		h.Options.Workers = matcherWorkers
		s, err := h.EvalLEAPMEStats(d, features.FullConfig(), 0.5)
		if err != nil {
			t.Fatalf("workers=%d/%d: %v", workers, matcherWorkers, err)
		}
		return s
	}
	ref := at(1, 1)
	for _, w := range [][2]int{{4, 1}, {-1, 1}, {1, 0}, {4, 0}} {
		got := at(w[0], w[1])
		if got.Runs != ref.Runs ||
			math.Float64bits(got.Mean.P) != math.Float64bits(ref.Mean.P) ||
			math.Float64bits(got.Mean.R) != math.Float64bits(ref.Mean.R) ||
			math.Float64bits(got.Mean.F1) != math.Float64bits(ref.Mean.F1) ||
			math.Float64bits(got.F1Std) != math.Float64bits(ref.F1Std) {
			t.Errorf("workers=%d, matcher workers=%d: %v, want %v (bit-identical)", w[0], w[1], got, ref)
		}
	}
}

// TestEvalParallelOnRun: the callback must fire once per run, serialised,
// even when runs race.
func TestEvalParallelOnRun(t *testing.T) {
	h := fastHarness(t)
	h.Runs = 4
	h.Workers = 4
	var mu sync.Mutex
	seen := map[int]int{}
	h.OnRun = func(run int, m PRF) {
		mu.Lock()
		seen[run]++
		mu.Unlock()
	}
	d := tinyDataset(t, domain.Cameras(), 22)
	if _, err := h.EvalLEAPMEStats(d, features.FullConfig(), 0.5); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 {
		t.Fatalf("OnRun covered %d runs, want 4 (%v)", len(seen), seen)
	}
	for run, n := range seen {
		if n != 1 {
			t.Errorf("run %d reported %d times", run, n)
		}
	}
}

// TestEvalParallelCancellation: a cancelled context aborts the pool.
func TestEvalParallelCancellation(t *testing.T) {
	h := fastHarness(t)
	h.Runs = 8
	h.Workers = 2
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h.Ctx = ctx
	d := tinyDataset(t, domain.Cameras(), 23)
	if _, err := h.EvalLEAPMEStats(d, features.FullConfig(), 0.5); err == nil {
		t.Error("cancelled harness returned nil error")
	}
}

// TestEvalBaselineStatsParallel: the baseline path shares collectRuns;
// sanity-check it under concurrency too.
func TestEvalBaselineStatsParallel(t *testing.T) {
	d := tinyDataset(t, domain.Cameras(), 24)
	at := func(workers int) Stats {
		h := fastHarness(t)
		h.Runs = 3
		h.Workers = workers
		s, err := h.EvalBaselineStats(d, newNameBaseline, 0.5)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return s
	}
	ref := at(1)
	got := at(3)
	if math.Float64bits(got.Mean.F1) != math.Float64bits(ref.Mean.F1) || got.Runs != ref.Runs {
		t.Errorf("baseline stats differ across worker counts: %v vs %v", got, ref)
	}
}
