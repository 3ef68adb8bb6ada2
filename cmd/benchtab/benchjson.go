package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"
	"time"

	"leapme/internal/core"
	"leapme/internal/dataset"
	"leapme/internal/embedding"
	"leapme/internal/features"
	"leapme/internal/mathx"
	"leapme/internal/serve"
)

// benchResult is one benchmark row in BENCH_*.json.
type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	PairsPerOp  int     `json:"pairs_per_op,omitempty"`
	PairsPerSec float64 `json:"pairs_per_sec,omitempty"`
}

// benchReport is the BENCH_serve.json / BENCH_train.json document.
type benchReport struct {
	Suite string `json:"suite"`
	Go    string `json:"go"`
	// Timestamp is the wall-clock stamp of the run. -stamp=false omits
	// it so CI can diff reports without a guaranteed churn line.
	Timestamp string `json:"timestamp,omitempty"`
	// DegradedEnv marks numbers taken on a crippled runtime — currently
	// GOMAXPROCS=1, where parallel suites measure scheduling overhead, not
	// speedup. Readers (and CI diffing) must not compare degraded reports
	// against healthy ones.
	DegradedEnv bool               `json:"degraded_env,omitempty"`
	Config      map[string]any     `json:"config"`
	Results     []benchResult      `json:"results,omitempty"`
	Blocking    []blockingRow      `json:"blocking,omitempty"`
	Matrix      []matrixCell       `json:"matrix,omitempty"`
	Derived     map[string]float64 `json:"derived,omitempty"`
}

// benchOp measures one operation: the full path runs it under
// testing.Benchmark (auto-scaled iteration count), the quick path runs
// exactly one iteration and synthesises the result — the 1-iteration
// budget CI smoke runs use to validate report shape without paying for
// statistically meaningful numbers.
func benchOp(quick bool, op func() error) (testing.BenchmarkResult, error) {
	if quick {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		err := op()
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		return testing.BenchmarkResult{
			N: 1, T: d,
			MemAllocs: m1.Mallocs - m0.Mallocs,
			MemBytes:  m1.TotalAlloc - m0.TotalAlloc,
		}, err
	}
	var opErr error
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := op(); err != nil {
				opErr = err
				b.FailNow()
			}
		}
	})
	return r, opErr
}

func resultOf(name string, pairsPerOp int, r testing.BenchmarkResult) benchResult {
	ns := float64(r.T.Nanoseconds()) / float64(r.N)
	out := benchResult{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     ns,
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		PairsPerOp:  pairsPerOp,
	}
	if pairsPerOp > 0 && ns > 0 {
		out.PairsPerSec = float64(pairsPerOp) * 1e9 / ns
	}
	return out
}

// benchFixture is the shared setup for both suites: embeddings, a lite
// dataset, a trained matcher and its serialised model.
type benchFixture struct {
	seed  int64
	dim   int
	store *embedding.Store
	data  *dataset.Dataset
	pairs []core.LabeledPair
	model []byte
}

func newBenchFixture(seed int64, dim int) (*benchFixture, error) {
	store, err := trainStore(seed, dim)
	if err != nil {
		return nil, err
	}
	d, err := dataset.Generate(dataset.Lite(dataset.CamerasConfig(seed)))
	if err != nil {
		return nil, err
	}
	m, err := core.NewMatcher(store, core.DefaultOptions(seed))
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	if err := m.ComputeFeatures(ctx, d); err != nil {
		return nil, err
	}
	pairs := core.TrainingPairs(d.Props, 2, mathx.NewRand(seed))
	if _, err := m.Train(ctx, pairs); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := m.WriteModel(&buf); err != nil {
		return nil, err
	}
	return &benchFixture{seed: seed, dim: dim, store: store, data: d, pairs: pairs, model: buf.Bytes()}, nil
}

// runBench runs the serve, train or parallel suite and writes the JSON
// report. quick caps every measurement at one iteration; stamp=false
// omits the wall-clock timestamp for diffable CI output.
func runBench(suite, out string, seed int64, dim, workers int, quick, stamp bool) error {
	start := time.Now()
	fmt.Fprintf(os.Stderr, "bench %s: preparing fixture (embeddings dim=%d, lite cameras, trained model)...\n", suite, dim)
	fx, err := newBenchFixture(seed, dim)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench %s: fixture ready in %v\n", suite, time.Since(start).Round(time.Millisecond))

	rep := benchReport{
		Suite:       suite,
		Go:          runtime.Version(),
		DegradedEnv: runtime.GOMAXPROCS(0) == 1,
		Config: map[string]any{
			"seed":           fx.seed,
			"embedding_dim":  fx.dim,
			"dataset":        fx.data.Name,
			"properties":     len(fx.data.Props),
			"training_pairs": len(fx.pairs),
			"gomaxprocs":     runtime.GOMAXPROCS(0),
			"quick":          quick,
		},
	}
	if stamp {
		rep.Timestamp = time.Now().UTC().Format(time.RFC3339)
	}
	switch suite {
	case "serve":
		err = benchServe(fx, &rep, quick)
	case "train":
		err = benchTrain(fx, &rep, quick)
	case "parallel":
		err = benchParallel(fx, &rep, workers, quick)
	default:
		return fmt.Errorf("unknown bench suite %q (serve|train|parallel)", suite)
	}
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench %s: wrote %s in %v\n", suite, out, time.Since(start).Round(time.Millisecond))
	return nil
}

func benchTrain(fx *benchFixture, rep *benchReport, quick bool) error {
	ctx := context.Background()

	// GloVe training of the fixture's store (corpus included): the
	// set-up every benchmark run, `leapme embed` and server start pays.
	r, err := benchOp(quick, func() error {
		_, err := trainStore(fx.seed, fx.dim)
		return err
	})
	if err != nil {
		return err
	}
	rep.Results = append(rep.Results, resultOf("glove_train", 0, r))

	// Feature computation over the whole dataset (one op = all properties).
	r, err = benchOp(quick, func() error {
		m, err := core.NewMatcher(fx.store, core.DefaultOptions(fx.seed))
		if err != nil {
			return err
		}
		return m.ComputeFeatures(ctx, fx.data)
	})
	if err != nil {
		return err
	}
	rep.Results = append(rep.Results, resultOf("compute_features_dataset", 0, r))

	// Flat-slab featurisation of the same properties through the
	// extractor's matrix path — the allocation-free emission the
	// pipeline uses underneath ComputeFeatures.
	values := fx.data.InstancesByProperty()
	items := make([]features.PropertyInput, len(fx.data.Props))
	for i, p := range fx.data.Props {
		items[i] = features.PropertyInput{Name: p.Name, Values: values[p.Key()]}
	}
	fmEx := features.NewExtractor(fx.store)
	r, err = benchOp(quick, func() error {
		_, _, err := fmEx.FeatureMatrix(ctx, 0, items)
		return err
	})
	if err != nil {
		return err
	}
	rep.Results = append(rep.Results, resultOf("feature_matrix", 0, r))

	// Training-pair generation.
	r, err = benchOp(quick, func() error {
		core.TrainingPairs(fx.data.Props, 2, mathx.NewRand(fx.seed))
		return nil
	})
	if err != nil {
		return err
	}
	rep.Results = append(rep.Results, resultOf("training_pair_generation", len(fx.pairs), r))

	// Full training run on the flat training kernel with the default
	// worker count (all CPUs); features are precomputed once outside the
	// timer, and pairs/sec counts labeled pairs consumed per second of
	// training.
	m, err := core.NewMatcher(fx.store, core.DefaultOptions(fx.seed))
	if err != nil {
		return err
	}
	if err := m.ComputeFeatures(ctx, fx.data); err != nil {
		return err
	}
	r, err = benchOp(quick, func() error {
		_, err := m.Train(ctx, fx.pairs)
		return err
	})
	if err != nil {
		return err
	}
	rep.Results = append(rep.Results, resultOf("train_full", len(fx.pairs), r))
	return nil
}

// benchPairs builds the wire-level request body reused by the HTTP
// benchmarks: n cross-source pairs with instance values.
func benchPairs(fx *benchFixture, n int) ([]byte, error) {
	values := fx.data.InstancesByProperty()
	type propSpec struct {
		Name   string   `json:"name"`
		Values []string `json:"values,omitempty"`
	}
	type pairSpec struct {
		A propSpec `json:"a"`
		B propSpec `json:"b"`
	}
	var pairs []pairSpec
	dataset.CrossSourcePairs(fx.data.Props, func(a, b dataset.Property) bool {
		pairs = append(pairs, pairSpec{
			A: propSpec{Name: a.Name, Values: values[a.Key()]},
			B: propSpec{Name: b.Name, Values: values[b.Key()]},
		})
		return len(pairs) < n
	})
	if len(pairs) < n {
		return nil, fmt.Errorf("fixture has only %d cross-source pairs, want %d", len(pairs), n)
	}
	return json.Marshal(map[string]any{"pairs": pairs})
}

func benchServe(fx *benchFixture, rep *benchReport, quick bool) error {
	dir, err := os.MkdirTemp("", "leapme-bench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	modelPath := dir + "/model.leapme"
	if err := os.WriteFile(modelPath, fx.model, 0o644); err != nil {
		return err
	}

	const pairsPerReq = 32
	body, err := benchPairs(fx, pairsPerReq)
	if err != nil {
		return err
	}
	rep.Config["pairs_per_request"] = pairsPerReq
	// A request smaller than one 32-pair micro-batch: the batcher hands
	// it to a worker as a partial batch.
	const smallPairs = 8
	smallBody, err := benchPairs(fx, smallPairs)
	if err != nil {
		return err
	}

	// newServer spins up an httptest server; cache toggles the feature
	// cache so cold vs warm isolates its effect.
	newServer := func(cacheSize int) (*serve.Server, *httptest.Server, error) {
		s, err := serve.New(serve.Config{
			Store:     fx.store,
			Models:    []serve.ModelSource{{Name: "default", Path: modelPath}},
			CacheSize: cacheSize,
		})
		if err != nil {
			return nil, nil, err
		}
		return s, httptest.NewServer(s.Handler()), nil
	}
	post := func(ts *httptest.Server, body []byte) error {
		resp, err := ts.Client().Post(ts.URL+"/v1/match", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("/v1/match: status %d", resp.StatusCode)
		}
		var sink struct {
			Results []struct {
				Error string `json:"error"`
			} `json:"results"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&sink); err != nil {
			return err
		}
		for _, r := range sink.Results {
			if r.Error != "" {
				return fmt.Errorf("pair failed: %s", r.Error)
			}
		}
		return nil
	}
	benchHTTP := func(name string, body []byte, pairs, cacheSize int, parallel bool) (benchResult, error) {
		s, ts, err := newServer(cacheSize)
		if err != nil {
			return benchResult{}, err
		}
		defer func() { ts.Close(); s.Close() }()
		if err := post(ts, body); err != nil { // warm-up (fills cache when enabled)
			return benchResult{}, err
		}
		var r testing.BenchmarkResult
		if parallel && !quick {
			var benchErr error
			r = testing.Benchmark(func(b *testing.B) {
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						if err := post(ts, body); err != nil {
							benchErr = err
							return
						}
					}
				})
			})
			if benchErr != nil {
				return benchResult{}, benchErr
			}
		} else {
			if r, err = benchOp(quick, func() error { return post(ts, body) }); err != nil {
				return benchResult{}, err
			}
		}
		return resultOf(name, pairs, r), nil
	}

	cold, err := benchHTTP("http_match_cold_cache_off", body, pairsPerReq, -1, false)
	if err != nil {
		return err
	}
	warm, err := benchHTTP("http_match_warm_cache_on", body, pairsPerReq, 0, false)
	if err != nil {
		return err
	}
	// Serial small requests on a warm cache: each one finds the worker
	// pool idle, so its time is what a lone request waits.
	small, err := benchHTTP("http_match_warm_8pairs", smallBody, smallPairs, 0, false)
	if err != nil {
		return err
	}
	conc, err := benchHTTP("http_match_concurrent_cache_on", body, pairsPerReq, 0, true)
	if err != nil {
		return err
	}
	rep.Results = append(rep.Results, cold, warm, small, conc)

	// Library scorer baseline: same pairs, no HTTP, no batching — the
	// floor the serving layers are compared against.
	m, err := core.NewMatcher(fx.store, core.DefaultOptions(fx.seed))
	if err != nil {
		return err
	}
	if err := m.ReadModel(bytes.NewReader(fx.model)); err != nil {
		return err
	}
	sc, err := m.NewScorer()
	if err != nil {
		return err
	}
	values := fx.data.InstancesByProperty()
	var as, bs []*features.Prop
	dataset.CrossSourcePairs(fx.data.Props, func(a, b dataset.Property) bool {
		as = append(as, sc.Featurize(a.Name, values[a.Key()]))
		bs = append(bs, sc.Featurize(b.Name, values[b.Key()]))
		return len(as) < pairsPerReq
	})
	dst := make([]float64, len(as))
	r, err := benchOp(quick, func() error { return sc.ScoreBatch(dst, as, bs) })
	if err != nil {
		return err
	}
	batchLib := resultOf("scorer_batch_library", len(as), r)
	rep.Results = append(rep.Results, batchLib)

	// Single-pair path: same arena-backed kernel, no batch gathering.
	r, err = benchOp(quick, func() error {
		_, err := sc.Score(as[0], bs[0])
		return err
	})
	if err != nil {
		return err
	}
	rep.Results = append(rep.Results, resultOf("scorer_single_library", 1, r))

	rep.Derived = map[string]float64{
		// How much the feature cache buys on repeated property content:
		// identical requests, cache off vs on.
		"feature_cache_speedup": cold.NsPerOp / warm.NsPerOp,
		// HTTP+batching overhead versus the raw library scorer.
		"http_overhead_x": warm.NsPerOp / batchLib.NsPerOp,
	}
	return nil
}
