package main

import (
	"sync"
	"time"

	"leapme/internal/blocking"
	"leapme/internal/core"
	"leapme/internal/dataset"
	"leapme/internal/embedding"
	"leapme/internal/features"
	"leapme/internal/index"
	"leapme/internal/nn"
	"leapme/internal/text"
)

const (
	// replayBatch is the serving micro-batch size (leapme-serve -max-batch).
	replayBatch = 32
	// replayPairs caps the pairs of one replayed job or request that go
	// through the per-pair scoring replays.
	replayPairs = 512
)

// replayer re-runs sampled work through single layers after the timed
// phase, one call per span, so each layer's cost is measured alone:
// core.Scorer for featurization and batch scoring, features.Pairer for
// pair vectors, nn.Kernel for the forward pass, blocking.ANNBlocker for
// candidate generation.
type replayer struct {
	p      *pass
	store  *embedding.Store
	sc     *core.Scorer
	pairer *features.Pairer
	kern   *nn.Kernel
	edit   text.EditScratch
	dst    []float64
	xs     []float64
	probs  []float64
	kbuf   []float64
}

func newReplayer(p *pass, store *embedding.Store, sc *core.Scorer, seed int64) (*replayer, error) {
	pairer, err := features.NewPairer(features.NewExtractor(store), sc.Features())
	if err != nil {
		return nil, err
	}
	// The forward pass costs the same for any weights of the served
	// shape, so a freshly initialised network of that shape stands in.
	net, err := nn.New(nn.Config{
		InDim:      pairer.Dim(),
		Hidden:     core.DefaultOptions(seed).Hidden,
		Out:        2,
		Activation: nn.ActReLU,
		Seed:       seed,
	})
	if err != nil {
		return nil, err
	}
	kern := nn.NewKernel(net)
	return &replayer{
		p: p, store: store, sc: sc, pairer: pairer, kern: kern,
		dst:   make([]float64, replayBatch),
		xs:    make([]float64, replayBatch*pairer.Dim()),
		probs: make([]float64, replayBatch*kern.OutDim()),
		kbuf:  make([]float64, kern.BatchScratchLen(replayBatch)),
	}, nil
}

// timed runs fn inside a span and returns its duration.
func (r *replayer) timed(name string, parent, n int, fn func()) time.Duration {
	id := r.p.tr.start(name, parent, 0)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	r.p.tr.end(id, n)
	return d
}

// featurize replays one property through core.Scorer.Featurize.
func (r *replayer) featurize(parent int, pr *prop) (f *features.Prop, d time.Duration) {
	d = r.timed("replay.featurize", parent, 1, func() { f = r.sc.Featurize(pr.Name, pr.Values) })
	return f, d
}

// scoreSerial replays pairs in micro-batches through Scorer.ScoreBatch,
// then builds the same pair vectors with Pairer.PairVectorScratch and
// runs them through Kernel.ForwardBatch. It returns the ScoreBatch time.
func (r *replayer) scoreSerial(parent int, as, bs []*features.Prop) (time.Duration, error) {
	var total time.Duration
	dim := r.pairer.Dim()
	for i := 0; i < len(as); i += replayBatch {
		j := min(i+replayBatch, len(as))
		n := j - i
		var err error
		total += r.timed("replay.score", parent, n, func() { err = r.sc.ScoreBatch(r.dst[:n], as[i:j], bs[i:j]) })
		if err != nil {
			return 0, err
		}
		xs := r.xs[:n*dim]
		r.timed("replay.pairvec", parent, n, func() {
			for k := 0; k < n; k++ {
				r.pairer.PairVectorScratch(xs[k*dim:(k+1)*dim], as[i+k], bs[i+k], &r.edit)
			}
		})
		r.timed("replay.forward", parent, n, func() {
			r.kern.ForwardBatch(r.probs[:n*r.kern.OutDim()], xs, n, r.kbuf[:r.kern.BatchScratchLen(n)])
		})
	}
	return total, nil
}

// scoreStage replays a request's scoring stage the way the server runs
// it: micro-batches shared by `workers` goroutines, each with its own
// scorer clone. It returns the stage's wall time.
func (r *replayer) scoreStage(parent, workers int, as, bs []*features.Prop) (time.Duration, error) {
	var (
		mu   sync.Mutex
		next int
		err  error
	)
	d := r.timed("replay.score_stage", parent, len(as), func() {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			sc := r.sc.Clone()
			wg.Add(1)
			go func() {
				defer wg.Done()
				dst := make([]float64, replayBatch)
				for {
					mu.Lock()
					i := next
					next += replayBatch
					mu.Unlock()
					if i >= len(as) {
						return
					}
					j := min(i+replayBatch, len(as))
					if e := sc.ScoreBatch(dst[:j-i], as[i:j], bs[i:j]); e != nil {
						mu.Lock()
						err = e
						mu.Unlock()
					}
				}
			}()
		}
		wg.Wait()
	})
	return d, err
}

// ann replays blocking.ANNBlocker on a catalog's properties, in the
// order the server hands them over, as the server builds it for a
// request without an index snapshot.
func (r *replayer) ann(parent int, props []dataset.Property) (cands []dataset.Pair, d time.Duration) {
	d = r.timed("replay.ann", parent, len(props), func() {
		cands = blocking.NewANNBlocker(r.store, index.Options{}).Candidates(props)
	})
	return cands, d
}
