package main

import (
	"context"
	"runtime"

	"leapme/internal/core"
	"leapme/internal/eval"
	"leapme/internal/features"
	"leapme/internal/nn"
)

// benchParallel measures the parallel pipeline against its 1-worker arm:
// the flat training kernel (nn.TrainKernel), property featurization, and the
// 25-repetition evaluation loop. Both arms run the *same* deterministic
// algorithm (the worker count never changes results, only wall clock), so
// the derived speedups isolate scheduling overhead and core utilisation.
// On a single-core machine the honest answer is ~1x; the ≥2x acceptance
// target applies to 4+ core hardware. It also emits the scorer bench
// matrix (GOMAXPROCS × workers × batch size — see benchmatrix.go).
func benchParallel(fx *benchFixture, rep *benchReport, workers int, quick bool) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rep.Config["workers"] = workers
	ctx := context.Background()

	matcherAt := func(w int) (*core.Matcher, error) {
		opts := core.DefaultOptions(fx.seed)
		opts.Workers = w
		m, err := core.NewMatcher(fx.store, opts)
		if err != nil {
			return nil, err
		}
		return m, m.ComputeFeatures(ctx, fx.data)
	}

	// Featurization: whole dataset, 1 worker vs N.
	featAt := func(name string, w int) (benchResult, error) {
		r, err := benchOp(quick, func() error {
			_, err := matcherAt(w)
			return err
		})
		return resultOf(name, len(fx.data.Props), r), err
	}
	feat1, err := featAt("featurize_workers_1", 1)
	if err != nil {
		return err
	}
	featN, err := featAt("featurize_workers_n", workers)
	if err != nil {
		return err
	}

	// Training: the flat training kernel, 1 worker vs N, features shared.
	m1, err := matcherAt(1)
	if err != nil {
		return err
	}
	fitAt := func(name string, w int) (benchResult, error) {
		opts := core.DefaultOptions(fx.seed)
		opts.Workers = w
		m, err := core.NewMatcher(fx.store, opts)
		if err != nil {
			return benchResult{}, err
		}
		if err := m.AdoptFeatures(m1); err != nil {
			return benchResult{}, err
		}
		r, err := benchOp(quick, func() error {
			_, err := m.Train(ctx, fx.pairs)
			return err
		})
		return resultOf(name, len(fx.pairs), r), err
	}
	fit1, err := fitAt("fit_workers_1", 1)
	if err != nil {
		return err
	}
	fitN, err := fitAt("fit_workers_n", workers)
	if err != nil {
		return err
	}

	// The paper's repetition loop: 25 random splits, serial vs concurrent
	// repetitions (3 splits under -quick). A shortened LR schedule keeps
	// one op in seconds; the serial/parallel ratio is what matters, not
	// the absolute time.
	evalRuns := 25
	if quick {
		evalRuns = 3
	}
	evalAt := func(name string, w int) (benchResult, error) {
		h := eval.NewHarness(fx.store, fx.seed)
		h.Runs = evalRuns
		h.Workers = w
		h.Options.Workers = 1 // per-rep training single-threaded: reps are the unit
		h.Options.Schedule = []nn.Phase{{Epochs: 4, LR: 1e-3}}
		r, err := benchOp(quick, func() error {
			_, err := h.EvalLEAPMEStats(fx.data, features.FullConfig(), 0.8)
			return err
		})
		return resultOf(name, h.Runs, r), err
	}
	eval1, err := evalAt("eval_reps_serial", 1)
	if err != nil {
		return err
	}
	evalN, err := evalAt("eval_reps_parallel", workers)
	if err != nil {
		return err
	}
	rep.Config["eval_runs"] = evalRuns
	rep.Config["eval_epochs"] = 4

	rep.Results = append(rep.Results, feat1, featN, fit1, fitN, eval1, evalN)
	rep.Derived = map[string]float64{
		"featurize_speedup": feat1.NsPerOp / featN.NsPerOp,
		"fit_speedup":       fit1.NsPerOp / fitN.NsPerOp,
		"eval_speedup":      eval1.NsPerOp / evalN.NsPerOp,
		"workers":           float64(workers),
	}
	return benchMatrix(fx, rep, quick)
}
