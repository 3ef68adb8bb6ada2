package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"leapme/internal/dataset"
	"leapme/internal/features"
	"leapme/internal/guard"
	"leapme/internal/parallel"
)

// Step 5b of Algorithm 1 — classifying the test pairs — runs in bounded
// rounds. The caller goroutine enumerates pairs into a round; the round
// is cut into chunks of matchChunk pairs that the workers score through
// their own Scorer clone, one batched forward pass per chunk; then the
// caller streams the round to fn in enumeration order and starts the
// next. Every score is bit-identical to scoring its pair alone, so the
// worker count, the chunking and the round boundaries never show in the
// output.
const (
	// matchChunk is the number of pairs one ScoreBatch call scores: a
	// whole number of the kernel's 8-input chunks, and the granularity
	// at which in-flight scoring notices a done ctx.
	matchChunk = 64
	// matchRoundChunks is the number of chunks per worker in a round. A
	// round holds at most workers × matchRoundChunks × matchChunk pairs,
	// which bounds a run's memory whatever its pair count.
	matchRoundChunks = 16
)

// matchRun is the state of one MatchWhere or MatchCandidates call.
type matchRun struct {
	m       *Matcher
	ctx     context.Context
	fn      func(ScoredPair)
	rep     *guard.Report
	workers int
	next    atomic.Int64 // first pair of the next unclaimed chunk

	// The round: pair i is pairs[i] with features (as[i], bs[i]);
	// scoring fills scores[i], or errs[i] when the pair failed.
	pairs  []dataset.Pair
	as, bs []*features.Prop
	scores []float64
	errs   []error
}

// newMatchRun starts a run that records into a fresh LastReport. maxPairs
// bounds the pairs the run can see; rounds are sized to it when it is
// below the round size, so small runs allocate small buffers.
func (m *Matcher) newMatchRun(ctx context.Context, fn func(ScoredPair), maxPairs int) *matchRun {
	workers := m.opts.Workers
	if workers == 0 {
		workers = -1 // the result is the same at every count, so use them all
	}
	workers = parallel.Resolve(workers)
	size := workers * matchRoundChunks * matchChunk
	if maxPairs < size {
		size = max(maxPairs, 1)
	}
	r := &matchRun{
		m:       m,
		ctx:     ctx,
		fn:      fn,
		rep:     guard.NewReport(),
		workers: workers,
		pairs:   make([]dataset.Pair, 0, size),
		as:      make([]*features.Prop, 0, size),
		bs:      make([]*features.Prop, 0, size),
		scores:  make([]float64, size),
		errs:    make([]error, size),
	}
	m.lastReport = r.rep
	return r
}

// add appends one pair to the round, first classifying the round if it
// is full.
func (r *matchRun) add(a, b dataset.Key, pa, pb *features.Prop) error {
	if len(r.pairs) == cap(r.pairs) {
		if err := r.flush(); err != nil {
			return err
		}
	}
	r.pairs = append(r.pairs, dataset.Pair{A: a, B: b})
	r.as = append(r.as, pa)
	r.bs = append(r.bs, pb)
	return nil
}

// finish classifies what the round still holds and returns the first
// error: the flush's own (ctx done), else the enumeration's err. Pairs
// enumerated before a hard enumeration error still reach fn, as they
// would had each been classified the moment it was enumerated.
func (r *matchRun) finish(err error) error {
	if ferr := r.flush(); ferr != nil {
		return ferr
	}
	return err
}

// flush scores the round on the workers, streams it to fn in
// enumeration order on the caller goroutine, and empties it. Once ctx is
// done no further callback runs.
func (r *matchRun) flush() error {
	n := len(r.pairs)
	if err := r.ctx.Err(); err != nil || n == 0 {
		return err
	}
	workers := min(r.workers, (n+matchChunk-1)/matchChunk)
	for len(r.m.workerSc) < workers {
		sc := r.m.sc.Clone()
		sc.ensureBatch(matchChunk)
		r.m.workerSc = append(r.m.workerSc, sc)
	}
	r.next.Store(0)
	wrep, err := parallel.ForEach(r.ctx, workers, workers, nil, r.scoreChunks)
	if err != nil {
		return err
	}
	if err := wrep.Err(); err != nil {
		return fmt.Errorf("core: classification worker: %w", err)
	}
	for i, p := range r.pairs {
		if err := r.ctx.Err(); err != nil {
			return err
		}
		err := r.errs[i]
		if err == nil {
			s := r.scores[i]
			sp := ScoredPair{A: p.A, B: p.B, Score: s, Match: s >= r.m.opts.Threshold}
			err = guard.Run(func() error { r.fn(sp); return nil })
		}
		unit := ""
		if err != nil {
			unit = p.A.String() + " × " + p.B.String()
		}
		r.rep.Record(unit, err)
	}
	r.pairs, r.as, r.bs = r.pairs[:0], r.as[:0], r.bs[:0]
	return nil
}

// scoreChunks is worker w's unit: it claims the round's chunks in order
// until none is left or ctx is done, scoring each in one batched forward
// pass that confines a failure to the failing pairs.
func (r *matchRun) scoreChunks(w int) error {
	sc := r.m.workerSc[w]
	n := len(r.pairs)
	for r.ctx.Err() == nil {
		lo := int(r.next.Add(matchChunk)) - matchChunk
		if lo >= n {
			break
		}
		hi := min(lo+matchChunk, n)
		sc.ScoreIsolated(r.scores[lo:hi], r.errs[lo:hi], r.as[lo:hi], r.bs[lo:hi])
	}
	return nil
}
