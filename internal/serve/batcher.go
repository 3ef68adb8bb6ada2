package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"leapme/internal/chaos"
	"leapme/internal/features"
	"leapme/internal/guard"
)

// ErrDraining is returned for scoring work submitted after Close began.
var ErrDraining = errors.New("serve: server is draining")

// span is one request's worth of pairs enqueued as a unit. Results land
// in the span's own slices, indexed by pair; the resp channel carries
// one pair index per completed pair and is buffered for the whole span,
// so a worker never blocks on a caller that gave up — the zombie-drain
// contract the admission gate depends on.
//
// Whatever its size, a span costs one struct, two result slices and one
// channel — the fixed per-request allocation profile the serve
// alloc-regression test pins.
type span struct {
	model  *Model
	as, bs []*features.Prop
	// unit names the i-th pair in error messages. It is only invoked on
	// the failure path, so handlers pass a closure and the steady state
	// never formats a string. nil falls back to "pair %d".
	unit   func(i int) string
	scores []float64
	errs   []error
	resp   chan int // buffered len(as)
}

func (sp *span) n() int { return len(sp.as) }

func (sp *span) unitName(i int) string {
	if sp.unit != nil {
		return sp.unit(i)
	}
	return fmt.Sprintf("pair %d", i)
}

// next blocks until one more pair of the span completes, returning its
// index, or until ctx ends (ok=false). Results arrive in completion
// order, not submission order.
func (sp *span) next(ctx context.Context) (idx int, ok bool) {
	select {
	case idx = <-sp.resp:
		return idx, true
	case <-ctx.Done():
		return 0, false
	}
}

// pairRef locates one pair of a span inside a dispatch batch. Batches
// are value slices drawn from a freelist, so batching a pair costs no
// heap allocation.
type pairRef struct {
	sp  *span
	idx int
}

// batcher coalesces concurrent pair-scoring requests into micro-batches:
// a dispatcher collects up to maxBatch pairs — splitting large spans and
// packing small ones — and hands each batch to the first idle worker, so
// pairs wait for company only while the whole pool is busy. Each worker
// scores every same-model run of a batch in one batched forward pass on
// a scorer clone of that model. A panic poisons only that pair's slot in
// its span.
type batcher struct {
	maxBatch int
	met      *Metrics
	chaos    *chaos.Injector // nil in production: inert hooks

	mu     sync.RWMutex // guards closed vs. queue sends
	closed bool
	queue  chan *span
	work   chan []pairRef // unbuffered: a send completes only at an idle worker
	bufs   chan []pairRef // batch-buffer freelist
	wg     sync.WaitGroup // dispatcher + workers
}

// newBatcher starts the dispatcher and workers worker goroutines. inj
// arms the chaos hooks (PointBatch before each batch, PointScore inside
// each pair's guard unit); nil leaves them inert.
func newBatcher(workers, maxBatch int, met *Metrics, inj *chaos.Injector) *batcher {
	if workers <= 0 {
		workers = 4
	}
	if maxBatch <= 0 {
		maxBatch = 32
	}
	b := &batcher{
		maxBatch: maxBatch,
		met:      met,
		chaos:    inj,
		queue:    make(chan *span, workers*maxBatch),
		work:     make(chan []pairRef),
		bufs:     make(chan []pairRef, workers+2),
	}
	b.wg.Add(1)
	//lint:allow guardgo scoring panics are guard.Run-isolated per pair in runBatch; a panic in the pool skeleton itself must crash rather than hang Close on a dead dispatcher
	go b.dispatch()
	for i := 0; i < workers; i++ {
		b.wg.Add(1)
		//lint:allow guardgo same contract as the dispatcher: per-pair isolation lives in runBatch
		go b.worker()
	}
	return b
}

// EnqueueSpan submits len(as) pairs for scoring as one span. Admission
// is all-or-nothing: the span is either fully queued or not at all. The
// model pointer pins the version every pair will be scored with; unit
// (optional) names pairs in error messages and runs only on failures.
func (b *batcher) EnqueueSpan(ctx context.Context, md *Model, as, bs []*features.Prop, unit func(i int) string) (*span, error) {
	if len(as) != len(bs) || len(as) == 0 {
		return nil, fmt.Errorf("serve: bad span shape: %d × %d pairs", len(as), len(bs))
	}
	sp := &span{
		model:  md,
		as:     as,
		bs:     bs,
		unit:   unit,
		scores: make([]float64, len(as)),
		errs:   make([]error, len(as)),
		resp:   make(chan int, len(as)),
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return nil, ErrDraining
	}
	select {
	case b.queue <- sp:
		return sp, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// getBuf takes a batch buffer off the freelist, or grows the pool.
func (b *batcher) getBuf() []pairRef {
	select {
	case buf := <-b.bufs:
		return buf[:0]
	default:
		return make([]pairRef, 0, b.maxBatch)
	}
}

// putBuf returns a batch buffer to the freelist (dropping it when the
// freelist is full, which only happens transiently during shutdown).
func (b *batcher) putBuf(buf []pairRef) {
	select {
	case b.bufs <- buf:
	default:
	}
}

// dispatch implements the work-conserving batching policy over spans:
// the current batch fills pair by pair, splitting a span larger than
// maxBatch across batches and packing small spans together. A full batch
// waits for a worker. A partial batch first takes every span already
// queued, then goes to the first idle worker, and takes further spans
// only while every worker is busy — so a batch never waits while a
// worker idles, and batches grow exactly when the pool is saturated.
func (b *batcher) dispatch() {
	defer b.wg.Done()
	defer close(b.work)
	var cur *span // partially dispatched span
	var off int
	for {
		if cur == nil {
			sp, ok := <-b.queue
			if !ok {
				return
			}
			cur, off = sp, 0
		}
		batch := b.getBuf()
	fill:
		for {
			for cur != nil && len(batch) < b.maxBatch {
				batch = append(batch, pairRef{sp: cur, idx: off})
				off++
				if off == cur.n() {
					cur = nil
				}
			}
			if len(batch) == b.maxBatch {
				b.work <- batch
				break fill
			}
			// The batch is partial, so cur is nil: take a queued span,
			// else hand the batch to an idle worker or take the next
			// span, whichever comes first.
			var sp *span
			var ok bool
			select {
			case sp, ok = <-b.queue:
			default:
				select {
				case b.work <- batch:
					break fill
				case sp, ok = <-b.queue:
				}
			}
			if !ok { // closed and drained: flush what is left
				b.work <- batch
				return
			}
			cur, off = sp, 0
		}
	}
}

// worker executes batches through its own gather arena. Finished batch
// buffers go back to the freelist.
func (b *batcher) worker() {
	defer b.wg.Done()
	g := newGather(b.maxBatch)
	for batch := range b.work {
		b.runBatch(batch, g)
		b.putBuf(batch)
	}
}

// gather is one worker's arena for a same-model run of a batch: pair k of
// the run has features (as[k], bs[k]) and result scores[k] or errs[k].
// Every slice holds maxBatch entries, the most pairs a batch carries.
type gather struct {
	as, bs []*features.Prop
	scores []float64
	errs   []error
}

func newGather(n int) *gather {
	return &gather{
		as:     make([]*features.Prop, n),
		bs:     make([]*features.Prop, n),
		scores: make([]float64, n),
		errs:   make([]error, n),
	}
}

// runBatch scores one coalesced batch (at most maxBatch pairs) through
// g: each contiguous same-model run is gathered and scored by one
// checked-out scorer clone in a single Scorer.ScoreIsolated call — one
// batched forward pass, retried pair by pair only if it fails, so a bad
// pair fails alone. This is the span protocol's hot loop — 0 marginal
// allocations per pair.
//
//lint:hotpath gated by TestRunBatchFixedAllocs
func (b *batcher) runBatch(batch []pairRef, g *gather) {
	if b.met != nil {
		b.met.Batches.Add(1)
		b.met.BatchPairs.Add(int64(len(batch)))
	}
	// Chaos hook: Delay/Stall here holds this worker (and its waiters'
	// deadlines start firing) while the rest of the pool keeps serving.
	b.chaos.Inject(chaos.PointBatch)
	// Chaos hook inside each pair's own guard unit, fired as the pair is
	// gathered: an injected panic or error fails that one pair, which
	// then skips the scorer, like any scorer bug.
	//lint:allow hotalloc one closure per batch, not per pair: guard.Run never retains it, and TestRunBatchFixedAllocs pins zero marginal allocations per pair
	hook := func() error { return b.chaos.Inject(chaos.PointScore) }
	for i := 0; i < len(batch); {
		md := batch[i].sp.model
		j := i
		for j < len(batch) && batch[j].sp.model == md {
			j++
		}
		run := batch[i:j]
		for k, ref := range run {
			g.as[k], g.bs[k] = ref.sp.as[ref.idx], ref.sp.bs[ref.idx]
			g.errs[k] = guard.Run(hook)
		}
		// Score each stretch of pairs the hook let through — without
		// chaos, the whole run in one call; lo++ steps over a failed pair.
		sc := md.acquire()
		for lo := 0; lo < len(run); lo++ {
			hi := lo
			for hi < len(run) && g.errs[hi] == nil {
				hi++
			}
			sc.ScoreIsolated(g.scores[lo:hi], g.errs[lo:hi], g.as[lo:hi], g.bs[lo:hi])
			lo = hi
		}
		md.release(sc)
		for k, ref := range run {
			s, err := g.scores[k], g.errs[k]
			if err != nil {
				s = 0
				//lint:allow hotalloc failure path only: a pair that errored already left the zero-alloc contract, and naming it is worth the format call
				err = fmt.Errorf("serve: scoring %s: %w", ref.sp.unitName(ref.idx), err)
				if b.met != nil {
					b.met.ScoreFailures.Add(1)
				}
			} else if b.met != nil {
				b.met.PairsScored.Add(1)
			}
			ref.sp.scores[ref.idx] = s
			ref.sp.errs[ref.idx] = err
			// The channel send publishes the slice writes above to the
			// receiver (happens-before), and the buffer is sized for the
			// whole span, so this never blocks.
			ref.sp.resp <- ref.idx
		}
		i = j
	}
}

// Close stops admitting work, drains queued spans through the workers
// and waits for them — every already-enqueued pair still gets its
// answer.
func (b *batcher) Close() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		close(b.queue)
	}
	b.mu.Unlock()
	b.wg.Wait()
}
