package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"leapme/internal/core"
	"leapme/internal/dataset"
	"leapme/internal/embedding"
	"leapme/internal/eval"
	"leapme/internal/features"
	"leapme/internal/mathx"
)

// offlineSLO is the job latency limit of offline-match.
const offlineSLO = 10 * time.Second

// offline is the offline-match workload: Algorithm 1 under the paper's
// protocol, one job per random 80% source split of the cameras-lite
// dataset, with the CLI defaults.
type offline struct {
	seed   int64
	jobs   int
	corpus [][]string
	data   *dataset.Dataset
	// want holds the evaluation harness's F1 for each job; computed once
	// per process, outside the timed phase, and shared by both passes.
	want []float64
}

func newOffline(seed int64, seconds int) (runner, error) {
	d, err := camerasLite(datasetSeed)
	if err != nil {
		return nil, err
	}
	// A job takes 1.5–4 s on a 2-vCPU Xeon: one job per three seconds of the
	// run, and never fewer than three, so job_s is a median.
	return &offline{seed: seed, jobs: max(3, seconds/3), corpus: corpus(seed), data: d}, nil
}

// digest covers the corpus, the dataset, and each job's split and
// training pairs.
func (w *offline) digest() [32]byte {
	parts := [][]byte{mustJSON(w.corpus), mustJSON(w.data)}
	for j := 0; j < w.jobs; j++ {
		splitSeed, modelSeed := w.jobSeeds(j)
		rng := mathx.NewRand(splitSeed)
		sp, err := eval.SplitSources(w.data.Sources, trainFrac, rng)
		if err != nil {
			panic(err) // the dataset has 8 sources
		}
		pairs := core.TrainingPairs(w.data.PropsOfSources(sp.Train), 2, rng)
		parts = append(parts, mustJSON(sp), mustJSON(pairs), []byte(fmt.Sprint(modelSeed)))
	}
	return digestOf(parts...)
}

// jobSeeds are the split and model seeds of job j: those of run j of an
// evaluation harness seeded with the workload seed.
func (w *offline) jobSeeds(j int) (split, model int64) {
	return w.seed + int64(j)*7919, w.seed + int64(j)
}

func (w *offline) run(p *pass) (*outcome, error) {
	o := &outcome{slo: offlineSLO, layer: map[string]float64{}}
	var store *embedding.Store
	for k := 0; k < setupRepeats; k++ {
		runtime.GC()
		t0 := time.Now()
		root := p.tr.start("setup", 0, 0)
		s, err := buildStore(p, root, w.corpus, w.seed)
		p.tr.end(root, 0)
		if err != nil {
			return nil, err
		}
		o.setups = append(o.setups, time.Since(t0).Seconds())
		store = s
	}

	counts := make([]prf, w.jobs)
	latMs := make([][]float64, w.jobs)
	var last *core.Matcher // the replays run on the last job's model
	var lastSplit eval.Split
	ph := beginPhase()
	start := time.Now()
	for j := range counts {
		sent := time.Since(start)
		c, m, sp, lat, err := w.job(p, store, j)
		done := time.Since(start)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: job %d: %v\n", j, err)
		}
		o.ops = append(o.ops, op{sched: sent, sent: sent, done: done, ok: err == nil})
		o.jobs = append(o.jobs, (done - sent).Seconds())
		counts[j], latMs[j], last, lastSplit = c, lat, m, sp
	}
	o.phase = ph.end()

	if err := w.reference(p.ctx, store); err != nil {
		return nil, err
	}
	for j, c := range counts {
		if !o.ops[j].ok {
			continue
		}
		if got := c.f1(); got != w.want[j] {
			fmt.Fprintf(os.Stderr, "perfbench: job %d: F1 %v, evaluation harness %v\n", j, got, w.want[j])
			o.ops[j].ok = false
			continue
		}
		o.match.add(c)
		o.latMs = append(o.latMs, latMs[j]...)
	}
	if p.tr != nil {
		if last == nil {
			return nil, fmt.Errorf("last job failed; nothing to replay")
		}
		o.spans = p.tr.snapshot()
		o.layer["core.pairs_scored"] = float64(groupSpans(o.spans).items("core.match"))
		if err := w.replay(p, store, last, lastSplit); err != nil {
			return nil, err
		}
		o.spans = p.tr.snapshot()
	}
	return o, nil
}

// job is one Algorithm 1 run: featurize → pair → fit → classify the test
// pairs, scored against ground truth. It also returns the latency of
// each scored pair: the time between consecutive pairs streamed out of
// MatchWhere.
func (w *offline) job(p *pass, store *embedding.Store, j int) (c prf, m *core.Matcher, sp eval.Split, latMs []float64, err error) {
	root := p.tr.start("offline.job", 0, int64(j))
	defer p.tr.end(root, 0)
	splitSeed, modelSeed := w.jobSeeds(j)
	rng := mathx.NewRand(splitSeed)
	sp, err = eval.SplitSources(w.data.Sources, trainFrac, rng)
	if err != nil {
		return c, nil, sp, nil, err
	}
	m, err = core.NewMatcher(store, core.DefaultOptions(modelSeed))
	if err != nil {
		return c, nil, sp, nil, err
	}
	id := p.tr.start("features.featurize", root, 0)
	err = m.ComputeFeatures(p.ctx, w.data)
	p.tr.end(id, len(w.data.Props))
	if err != nil {
		return c, nil, sp, nil, err
	}
	id = p.tr.start("core.pairgen", root, 0)
	pairs := core.TrainingPairs(w.data.PropsOfSources(sp.Train), 2, rng)
	p.tr.end(id, len(pairs))
	id = p.tr.start("core.train", root, 0)
	_, err = m.Train(p.ctx, pairs)
	p.tr.end(id, len(pairs))
	if err != nil {
		return c, nil, sp, nil, err
	}

	truth := map[dataset.Pair]bool{}
	for _, pr := range dataset.MatchingPairs(w.data.Props) {
		if !(sp.Train[pr.A.Source] && sp.Train[pr.B.Source]) {
			truth[pr.Canonical()] = true
		}
	}
	n := 0
	id = p.tr.start("core.match", root, 0)
	last := time.Now()
	err = m.MatchWhere(p.ctx, w.data.Props, func(a, b dataset.Property) bool {
		return !(sp.Train[a.Source] && sp.Train[b.Source])
	}, func(s core.ScoredPair) {
		now := time.Now()
		latMs = append(latMs, ms(now.Sub(last)))
		last = now
		n++
		if !s.Match {
			return
		}
		if truth[dataset.Pair{A: s.A, B: s.B}.Canonical()] {
			c.tp++
		} else {
			c.fp++
		}
	})
	p.tr.end(id, n)
	if err != nil {
		return c, nil, sp, nil, err
	}
	if rep := m.LastReport(); rep != nil && rep.Failed() > 0 {
		return c, nil, sp, nil, fmt.Errorf("%d pairs failed to score", rep.Failed())
	}
	c.fn = len(truth) - c.tp
	return c, m, sp, latMs, nil
}

// reference runs the evaluation harness over the same seed and splits,
// once per process, for the F1 check.
func (w *offline) reference(ctx context.Context, store *embedding.Store) error {
	if w.want != nil {
		return nil
	}
	want := make([]float64, w.jobs)
	for j := range want {
		want[j] = -1 // a run the harness skipped fails the check
	}
	h := eval.NewHarness(store, w.seed)
	h.Runs = w.jobs
	h.Workers = runtime.NumCPU()
	h.Ctx = ctx
	h.OnRun = func(run int, m eval.PRF) { want[run] = m.F1 }
	if _, err := h.EvalLEAPMEStats(w.data, features.FullConfig(), trainFrac); err != nil {
		return fmt.Errorf("evaluation harness: %w", err)
	}
	w.want = want
	return nil
}

// replay times the scoring layers on the last job's model, outside the
// timed phase: property featurization, and the test pairs through
// core.Scorer, features.Pairer and nn.Kernel in 32-pair batches.
func (w *offline) replay(p *pass, store *embedding.Store, m *core.Matcher, sp eval.Split) error {
	sc, err := m.NewScorer()
	if err != nil {
		return err
	}
	r, err := newReplayer(p, store, sc, w.seed)
	if err != nil {
		return err
	}
	root := p.tr.start("replay", 0, 0)
	defer p.tr.end(root, 0)
	feats := map[string]*features.Prop{}
	for _, pr := range propsOf(w.data) {
		feats[pr.key()], _ = r.featurize(root, pr)
	}
	var as, bs []*features.Prop
	dataset.CrossSourcePairs(w.data.Props, func(a, b dataset.Property) bool {
		if sp.Train[a.Source] && sp.Train[b.Source] {
			return true
		}
		as = append(as, feats[a.Key().String()])
		bs = append(bs, feats[b.Key().String()])
		return len(as) < replayPairs
	})
	_, err = r.scoreSerial(root, as, bs)
	return err
}

// buildStore trains the GloVe store and round-trips it through the store
// file format the binaries read.
func buildStore(p *pass, parent int, corpus [][]string, seed int64) (*embedding.Store, error) {
	id := p.tr.start("embedding.train", parent, 0)
	s, err := embedding.TrainGloVe(corpus, gloveConfig(seed))
	p.tr.end(id, len(corpus))
	if err != nil {
		return nil, err
	}
	id = p.tr.start("embedding.roundtrip", parent, 0)
	defer p.tr.end(id, 0)
	path := filepath.Join(p.dir, "store.bin")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriter(f)
	if _, err := s.WriteTo(bw); err != nil {
		f.Close()
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	f, err = os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return embedding.ReadStore(bufio.NewReader(f))
}
