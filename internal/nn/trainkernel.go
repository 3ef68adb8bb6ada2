package nn

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"

	"leapme/internal/mathx"
)

// TrainKernel is the package's only trainer: Fit on a flat training
// slab is the one way to train a Network. It trains a network's own
// Kernel in place — the weight and bias slabs the network is made of —
// and keeps the batch gradients, optimizer moments and phase-rollback
// snapshot in flat slabs of the same layout; each gradient chunk runs a
// fused forward/backward pass over a per-chunk arena.
//
// Memory layout (the Kernel's kernLayer offsets):
//
//	w    ┌ layer0 rows×cols ┬ layer1 rows×cols ┬ … ┐   row-major weights
//	b    ┌ layer0 rows      ┬ layer1 rows      ┬ … ┐   biases
//	g, m, v, snap: w's layout, then b's, on one slab
//
// Per-chunk arenas hold activations and deltas unit-major with a fixed
// stride of gradChunkSize: outs[li][r*8+e] is unit r of example e, so
// the fused pass streams each weight row once per chunk across all
// eight examples (eight independent accumulator chains) instead of
// re-walking the full weight set per example.
//
// Bit-identity contract: a batch is split into fixed 8-example chunks;
// each chunk accumulates its examples' gradients in example order, and
// the chunk partials fold with a fixed binary-tree reduction. Both are
// pure functions of the batch size — the worker count only decides how
// many chunks are in flight — so Fit trains byte-identical weights for
// every worker count. The equivalence suite pins the bytes to
// chunkedFit (oracle_test.go), a reference trainer that runs each
// example's forward and backward pass on its own, and the golden
// determinism gate in internal/core pins them to a committed CRC, so
// any change to an accumulation order here is a model-format change,
// not an optimisation.
//
// Every chunk, a partial tail chunk included (its unused lanes are
// zero-padded), runs the eight-lane routines of simd.go. On amd64 they
// dispatch to the AVX kernels in simd_amd64.s (vertical lane arithmetic
// only — see simd.go for why that preserves the contract bit for bit);
// everywhere else their generic Go loops are the implementation as well
// as the reference.
//
// The pool also runs the optimizer step. Once every chunk is done, the
// parameters are cut into fixed ranges of stepSpan elements (a function
// of the parameter count alone), and each range's tree reduction and
// Adam update is one pool task. Every element's reduction and update
// depend on that element alone, so the ranges change no bit; only the
// batch-loss tree stays on the calling goroutine. The calling goroutine
// is part of the pool: it runs queued chunks and ranges itself while it
// waits (see run).
type TrainKernel struct {
	*Kernel // the network being trained: its layers and parameter slabs

	g    []float64 // batch-averaged gradients: weights then biases
	snap []float64 // phase checkpoint: w then b

	adamT int       // Adam steps since the last reset
	m, v  []float64 // Adam moments, g's layout

	cfg     TrainConfig
	workers int

	slots  []*trainSlot
	ranges int // optimizer-step ranges: ceil(len(g) / stepSpan)

	// Per-batch state the pool tasks read: the batch (chunkGrads) and
	// the step constants beginStep sets (stepRange). The channels are
	// buffered to the larger of len(slots) and ranges, so a batch's
	// sends never block.
	curXS     []float64
	curYS     []int
	curIdx    []int
	curChunks int
	inv, lr   float64 // 1/batch size, learning rate
	c1, c2    float64 // Adam's bias corrections for step adamT
	tasks     chan poolTask
	done      chan struct{}
}

// poolTask is one unit of pool work: chunk i's gradients, or the
// optimizer step over parameter range i.
type poolTask struct {
	step bool
	i    int
}

// Adam's hyper-parameters (Kingma & Ba 2015), the Keras defaults the
// paper's implementation relied on. Training is always Adam.
const (
	adamBeta1 = 0.9
	adamBeta2 = 0.999
	adamEps   = 1e-8
)

// gradChunkSize is the number of examples accumulated serially into one
// gradient slot. A constant — never derived from the worker count.
const gradChunkSize = 8

// stepSpan is the number of parameters one optimizer-step task reduces
// and updates. A constant, so the ranges depend only on the parameter
// count; each range's slot and moment slices stay cache-resident.
const stepSpan = 2048

// trainSlot is one chunk's fused forward/backward arena. Activation and
// delta blocks are unit-major with stride gradChunkSize; the gradient
// slab mirrors the kernel's g so the reduction indexes them uniformly.
type trainSlot struct {
	g      []float64   // per-chunk gradient sums, g's layout
	gw, gb []float64   // g's weight and bias parts
	outs   [][]float64 // per-layer activations, unit-major [r*8+e]
	outsEM [][]float64 // the same activations example-major [e*rows+r]
	deltas [][]float64 // per-layer dL/d(pre-activation), unit-major
	inT    []float64   // transposed chunk input [c*8+e]
	inEM   []float64   // chunk input example-major [e*inDim+c]
	probs  []float64   // softmax probabilities, example-major [e*out+r]
	loss   float64
}

// NewTrainKernel builds a training kernel over n's own slabs,
// pre-allocating every arena the epoch loop touches, so the loop itself
// performs no heap allocations. Zero fields of cfg take their defaults
// (batch 32, the paper's schedule, 3 retries per phase, backoff 0.1,
// explode threshold 1e8, one worker per CPU). Fit updates n's weights in
// place, so serialization and inference read the trained bytes.
func NewTrainKernel(n *Network, cfg TrainConfig) (*TrainKernel, error) {
	if n == nil {
		return nil, errors.New("nn: NewTrainKernel on nil network")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if len(cfg.Schedule) == 0 {
		cfg.Schedule = PaperSchedule()
	}
	if cfg.MaxPhaseRetries <= 0 {
		cfg.MaxPhaseRetries = 3
	}
	if cfg.LRBackoff <= 0 || cfg.LRBackoff >= 1 {
		cfg.LRBackoff = 0.1
	}
	if cfg.ExplodeThreshold <= 0 {
		cfg.ExplodeThreshold = 1e8
	}

	k := &TrainKernel{Kernel: &n.Kernel, cfg: cfg}
	wlen, plen := len(k.w), len(k.w)+len(k.b)
	k.g = make([]float64, plen)
	k.snap = make([]float64, plen)
	k.m = make([]float64, plen)
	k.v = make([]float64, plen)
	k.ranges = (plen + stepSpan - 1) / stepSpan

	numSlots := (cfg.BatchSize + gradChunkSize - 1) / gradChunkSize
	for i := 0; i < numSlots; i++ {
		g := make([]float64, plen)
		s := &trainSlot{
			g:     g,
			gw:    g[:wlen],
			gb:    g[wlen:],
			inT:   make([]float64, k.inDim*gradChunkSize),
			inEM:  make([]float64, k.inDim*gradChunkSize),
			probs: make([]float64, k.outDim*gradChunkSize),
		}
		for _, l := range k.layers {
			s.outs = append(s.outs, make([]float64, l.rows*gradChunkSize))
			s.outsEM = append(s.outsEM, make([]float64, l.rows*gradChunkSize))
			s.deltas = append(s.deltas, make([]float64, l.rows*gradChunkSize))
		}
		k.slots = append(k.slots, s)
	}
	k.workers = cfg.Workers
	if k.workers <= 0 {
		k.workers = runtime.GOMAXPROCS(0)
	}
	return k, nil
}

// Fit trains on a flat row-major training set: example i occupies
// xs[i*InDim : (i+1)*InDim] and ys[i] is its class. It returns the mean
// loss of the final epoch. Each epoch shuffles the examples with a
// cfg.Seed stream and runs them in mini-batches. ctx is checked between
// mini-batches: a done context aborts with ctx.Err(), leaving the
// network in its last-completed-batch state; nil behaves like
// context.Background(). An epoch with a non-finite loss or a parameter
// beyond ExplodeThreshold rolls the phase back to its checkpoint and
// restarts it with a backed-off learning rate; beyond MaxPhaseRetries
// Fit fails with ErrDiverged, leaving the network at that checkpoint.
// Every update lands in the network's own slabs as it happens.
func (k *TrainKernel) Fit(ctx context.Context, xs []float64, ys []int) (float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(ys)
	if n == 0 {
		return 0, errors.New("nn: Fit with no training examples")
	}
	if len(xs) != n*k.inDim {
		return 0, fmt.Errorf("nn: flat training set has len %d, want %d (%d examples × dim %d)",
			len(xs), n*k.inDim, n, k.inDim)
	}
	for i := 0; i < n; i++ {
		row := xs[i*k.inDim : (i+1)*k.inDim]
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, fmt.Errorf("nn: example %d has non-finite feature %d (%v)", i, j, v)
			}
		}
		if ys[i] < 0 || ys[i] >= k.outDim {
			return 0, fmt.Errorf("nn: label %d of example %d outside [0, %d)", ys[i], i, k.outDim)
		}
	}
	cfg := k.cfg

	rng := mathx.NewRand(cfg.Seed)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if k.workers > 1 {
		k.startWorkers()
		defer k.stopWorkers()
	}

	var lastLoss float64
	epoch := 0
	for pi, phase := range cfg.Schedule {
		lr := phase.LR
		// The rollback checkpoint: parameters as of the start of the
		// phase, i.e. the last state every earlier phase signed off on.
		k.snapshot()
		retries := 0
		for e := 0; e < phase.Epochs; e++ {
			mathx.Shuffle(order, rng)
			var epochLoss float64
			for start := 0; start < len(order); start += cfg.BatchSize {
				if err := ctx.Err(); err != nil {
					return lastLoss, err
				}
				end := start + cfg.BatchSize
				if end > len(order) {
					end = len(order)
				}
				epochLoss += k.runBatch(xs, ys, order[start:end], lr)
				if math.IsNaN(epochLoss) || math.IsInf(epochLoss, 0) {
					break // mid-epoch divergence: no point finishing the epoch
				}
			}

			reason := ""
			if math.IsNaN(epochLoss) || math.IsInf(epochLoss, 0) {
				reason = "non-finite loss"
			} else if m := k.maxAbsParam(); math.IsNaN(m) || m > cfg.ExplodeThreshold {
				reason = fmt.Sprintf("exploding weights (max |w| = %g)", m)
			}
			if reason != "" {
				retries++
				if retries > cfg.MaxPhaseRetries {
					k.restore()
					return lastLoss, fmt.Errorf("%w: phase %d: %s after %d recovery attempts",
						ErrDiverged, pi, reason, cfg.MaxPhaseRetries)
				}
				k.restore()
				k.resetOpt() // stale moments would re-poison the restored weights
				lr *= cfg.LRBackoff
				if cfg.OnRecovery != nil {
					cfg.OnRecovery(pi, retries, lr, reason)
				}
				e = -1 // restart the phase from the checkpoint
				continue
			}

			lastLoss = epochLoss / float64(n)
			if cfg.OnEpoch != nil {
				cfg.OnEpoch(epoch, lastLoss)
			}
			epoch++
		}
	}
	return lastLoss, nil
}

// startWorkers launches the persistent chunk workers for one Fit run.
// Sends of a task happen-before the worker's reads of the batch state,
// and the worker's slot writes happen-before the main goroutine's done
// receive; the tasks the main goroutine takes itself are sequenced on
// it. So the pool is race-free by construction.
func (k *TrainKernel) startWorkers() {
	n := max(len(k.slots), k.ranges)
	k.tasks = make(chan poolTask, n)
	k.done = make(chan struct{}, n)
	// Workers capture the channels as locals: a goroutine the scheduler
	// never runs until after Fit returns must not read the struct fields
	// stopWorkers nils out.
	tasks, done := k.tasks, k.done
	for w := 0; w < k.workers; w++ {
		//lint:allow guardgo a panicking gradient chunk must crash Fit loudly; guard isolation would return a silently partial gradient sum
		go func() {
			for t := range tasks {
				k.runTask(t)
				done <- struct{}{}
			}
		}()
	}
}

func (k *TrainKernel) stopWorkers() {
	close(k.tasks)
	k.tasks, k.done = nil, nil
}

// runBatch computes one mini-batch update: fused chunk gradients, then
// the optimizer step — the tree reduction with batch averaging and one
// Adam update, range by range — each on the pool (up to k.workers tasks
// in flight, plus the caller's), then the batch-loss tree on the
// caller. It returns the
// batch's summed loss. Allocation-free; the chunk structure, the ranges
// and every accumulation order are pure functions of the batch and the
// parameter count, never of the worker count.
//
//lint:hotpath gated by TestTrainKernelEpochAllocs
func (k *TrainKernel) runBatch(xs []float64, ys []int, idx []int, lr float64) float64 {
	nChunks := (len(idx) + gradChunkSize - 1) / gradChunkSize
	k.curXS, k.curYS, k.curIdx = xs, ys, idx
	k.run(false, nChunks)
	k.beginStep(nChunks, 1/float64(len(idx)), lr)
	k.run(true, k.ranges)
	return k.batchLoss(nChunks)
}

// run executes n tasks of one kind — chunks, or step ranges when step
// is set — on the worker pool, or on the caller when no pool is running
// or there is a single task, and returns once all n are done.
//
// The caller queues the tasks and then takes queued ones itself until
// the queue is empty, and only then waits for the tasks the workers
// took. A parked worker can take longer to wake than a step range
// takes to run, so a caller that blocked at once would wait on
// wake-ups twice a batch; running queued tasks instead turns a late
// wake-up into less parallelism rather than a stall. Which goroutine
// runs a task changes no bit: each task writes only its own slot or
// range.
func (k *TrainKernel) run(step bool, n int) {
	if k.tasks == nil || n == 1 {
		for i := 0; i < n; i++ {
			k.runTask(poolTask{step: step, i: i})
		}
		return
	}
	for i := 0; i < n; i++ {
		k.tasks <- poolTask{step: step, i: i}
	}
	mine := 0
drain:
	for mine < n {
		select {
		case t := <-k.tasks:
			k.runTask(t)
			mine++
		default:
			break drain
		}
	}
	for i := mine; i < n; i++ {
		<-k.done
	}
}

func (k *TrainKernel) runTask(t poolTask) {
	if t.step {
		k.stepRange(t.i)
	} else {
		k.chunkGrads(t.i)
	}
}

// chunkGrads runs the fused forward/backward pass for chunk ci of the
// current batch, writing the chunk's gradient sums and loss into its
// slot. Within the chunk every example sees the exact serial
// accumulation order of a per-example forward and backward pass — the
// batch-major loop only interleaves the eight independent per-example
// accumulator chains, it never regroups any individual sum.
//
//lint:hotpath gated by TestTrainKernelEpochAllocs
func (k *TrainKernel) chunkGrads(ci int) {
	idx := k.curIdx
	lo := ci * gradChunkSize
	hi := lo + gradChunkSize
	if hi > len(idx) {
		hi = len(idx)
	}
	m := hi - lo
	s := k.slots[ci]
	xs := k.curXS

	// Gather the chunk's input rows in both layouts — example-major for
	// the gradient sweeps, unit-major (transposed) for the forward pass.
	// Pure copies, no arithmetic, so layout cannot affect bits. A partial
	// chunk runs the same eight-lane routines as a full one: its pad
	// lanes are zeroed so stale values never enter them, every lane is
	// an independent chain, and nothing reads a pad lane's results.
	inT := s.inT
	inEM := s.inEM
	if m < gradChunkSize {
		clear(inT)
	}
	for e := 0; e < m; e++ {
		row := xs[idx[lo+e]*k.inDim : (idx[lo+e]+1)*k.inDim]
		copy(inEM[e*k.inDim:(e+1)*k.inDim], row)
		for c, v := range row {
			inT[c*gradChunkSize+e] = v
		}
	}

	// Forward, batch-major: each weight row streams once across the
	// chunk; each example keeps its private sequential dot accumulator
	// (the mathx.Dot order), advanced in lockstep over c — eight
	// independent dependency chains the CPU overlaps, which is where the
	// kernel's single-core speedup comes from.
	cur := inT
	for li := range k.layers {
		l := &k.layers[li]
		out := s.outs[li]
		l.forwardChunk(out, cur, k.w, k.b)
		// Mirror the activations example-major for the gradient sweeps
		// and the softmax reads — a pure copy, bit-neutral.
		em := s.outsEM[li]
		for r := 0; r < l.rows; r++ {
			rb := r * gradChunkSize
			for e := 0; e < m; e++ {
				em[e*l.rows+r] = out[rb+e]
			}
		}
		cur = out
	}

	// Softmax, loss and output deltas per example, in example order. The
	// example-major mirror of the last layer is exactly each example's
	// logit vector.
	last := len(k.layers) - 1
	lastEM := s.outsEM[last]
	dlast := s.deltas[last]
	ys := k.curYS
	s.loss = 0
	if m < gradChunkSize {
		clear(dlast) // pad lanes carry zero deltas into the backward pass
	}
	for e := 0; e < m; e++ {
		pb := s.probs[e*k.outDim : (e+1)*k.outDim]
		softmax(pb, lastEM[e*k.outDim:(e+1)*k.outDim])
		label := ys[idx[lo+e]]
		for r := 0; r < k.outDim; r++ {
			d := pb[r]
			if r == label {
				d -= 1
			}
			dlast[r*gradChunkSize+e] = d
		}
		p := pb[label]
		if p < 1e-12 {
			p = 1e-12
		}
		s.loss += -math.Log(p)
	}

	// Backward: per layer, gradient accumulation then delta propagation,
	// in a per-example backward pass's order.
	for li := last; li > 0; li-- {
		l := &k.layers[li]
		k.accumLayerGrads(s, li, s.outsEM[li-1], m)
		w := k.w[l.woff : l.woff+l.rows*l.cols]
		dcur := s.deltas[li]
		dprev := s.deltas[li-1]
		pn := l.cols * gradChunkSize
		clear(dprev[:pn])
		// MulVecT order: dst[c] += delta[r]*w[r][c], r ascending,
		// unconditional (no zero-skip — signed zeros must match).
		for r := 0; r < l.rows; r++ {
			rb := r * gradChunkSize
			bwdRow8(dcur[rb:rb+gradChunkSize], w[r*l.cols:(r+1)*l.cols], dprev)
		}
		k.layers[li-1].act.mulDeriv(dprev[:pn], s.outs[li-1])
	}
	k.accumLayerGrads(s, 0, s.inEM, m)
}

// accumLayerGrads stores layer li's chunk gradient sums — gw from the
// outer products delta×input, gb from the delta sums — one outerRow
// call per row over the example-major inputs, live lanes in ascending
// example order. The AddOuterTo zero-skip is preserved per
// (example, row): a zero delta contributes nothing to gw (its lane is
// compacted away), while gb adds unconditionally, exactly as the
// per-example reference does; per column outerRow's chain is the
// column-major zero-skip chain term for term.
//
//lint:hotpath gated by TestTrainKernelEpochAllocs
func (k *TrainKernel) accumLayerGrads(s *trainSlot, li int, insEM []float64, m int) {
	l := &k.layers[li]
	d := s.deltas[li]
	gw := s.gw[l.woff : l.woff+l.rows*l.cols]
	gb := s.gb[l.boff : l.boff+l.rows]
	for r := 0; r < l.rows; r++ {
		// Compact the nonzero delta lanes up front, ascending, so the
		// per-column accumulation order is exactly AddOuterTo's
		// zero-skip order; off[k] locates live lane k's input row.
		// Every lane is written at nz and kept by counting it, which gc
		// compiles to CMOV instead of a branch on each delta.
		var dz [gradChunkSize]float64
		var off [gradChunkSize]int
		nz := 0
		var bs float64
		rb := r * gradChunkSize
		for e := 0; e < m; e++ {
			v := d[rb+e]
			bs += v
			dz[nz], off[nz] = v, e*l.cols
			if v != 0 {
				nz++
			}
		}
		gb[r] = bs
		outerRow(gw[r*l.cols:(r+1)*l.cols], insEM, &dz, &off, nz)
	}
}

// beginStep sets the constants of the batch's optimizer step — its
// chunk count, the 1/batch scale, the learning rate and Adam's bias
// corrections for the next step count — once, before the ranges run.
//
//lint:hotpath gated by TestTrainKernelEpochAllocs
func (k *TrainKernel) beginStep(nChunks int, inv, lr float64) {
	k.adamT++
	k.curChunks, k.inv, k.lr = nChunks, inv, lr
	k.c1 = 1 - math.Pow(adamBeta1, float64(k.adamT))
	k.c2 = 1 - math.Pow(adamBeta2, float64(k.adamT))
}

// stepRange is the optimizer step over parameter range ri,
// g[ri·stepSpan : (ri+1)·stepSpan]: it folds the batch's chunk slots
// into g in a fixed binary-tree combination order, the zero-grads fold
// and the 1/batch scale fused into one per-element pass,
// g = (0 + tree(slots)) * inv, which is bit-identical to folding the
// tree total into zeroed buffers and then scaling by inv. The explicit
// leading zero is load-bearing: it normalises a −0 tree total to +0
// exactly as the fold into zeroed buffers does. Then it applies one
// Adam update to the range's weights and biases. Every element is
// independent, so the bits do not depend on the ranges.
//
//lint:hotpath gated by TestTrainKernelEpochAllocs
func (k *TrainKernel) stepRange(ri int) {
	lo := ri * stepSpan
	hi := min(lo+stepSpan, len(k.g))
	g, inv, s := k.g[lo:hi], k.inv, k.slots
	switch k.curChunks {
	case 1:
		for j, v := range s[0].g[lo:hi] {
			g[j] = (0 + v) * inv
		}
	case 2:
		b := s[1].g[lo:hi]
		for j, v := range s[0].g[lo:hi] {
			g[j] = (0 + (v + b[j])) * inv
		}
	case 3:
		b, c := s[1].g[lo:hi], s[2].g[lo:hi]
		for j, v := range s[0].g[lo:hi] {
			g[j] = (0 + ((v + b[j]) + c[j])) * inv
		}
	case 4:
		b, c, d := s[1].g[lo:hi], s[2].g[lo:hi], s[3].g[lo:hi]
		for j, v := range s[0].g[lo:hi] {
			g[j] = (0 + ((v + b[j]) + (c[j] + d[j]))) * inv
		}
	default:
		// General tree for batch sizes beyond 32: stride 1 merges slot
		// i+1 into slot i for even i, stride 2 merges i+2 into i for
		// i ≡ 0 (mod 4), and so on, element-wise through the first
		// slot's slab (the oracle's treeReduce order).
		n := k.curChunks
		for stride := 1; stride < n; stride *= 2 {
			for i := 0; i+stride < n; i += 2 * stride {
				dst, src := s[i].g[lo:hi], s[i+stride].g[lo:hi]
				for j, v := range src {
					dst[j] += v
				}
			}
		}
		for j, v := range s[0].g[lo:hi] {
			g[j] = (0 + v) * inv
		}
	}
	nw := len(k.w)
	if lo < nw {
		e := min(hi, nw)
		adamStep(k.w[lo:e], k.g[lo:e], k.m[lo:e], k.v[lo:e], adamBeta1, adamBeta2, k.c1, k.c2, adamEps, k.lr)
	}
	if hi > nw {
		b := max(lo, nw)
		adamStep(k.b[b-nw:hi-nw], k.g[b:hi], k.m[b:hi], k.v[b:hi], adamBeta1, adamBeta2, k.c1, k.c2, adamEps, k.lr)
	}
}

// batchLoss folds the first nChunks slot losses with the gradients'
// tree and returns the batch's summed loss (unscaled).
//
//lint:hotpath gated by TestTrainKernelEpochAllocs
func (k *TrainKernel) batchLoss(nChunks int) float64 {
	s := k.slots
	for stride := 1; stride < nChunks; stride *= 2 {
		for i := 0; i+stride < nChunks; i += 2 * stride {
			s[i].loss += s[i+stride].loss
		}
	}
	return s[0].loss
}

// snapshot records the network's parameters as the phase checkpoint.
func (k *TrainKernel) snapshot() {
	copy(k.snap, k.w)
	copy(k.snap[len(k.w):], k.b)
}

// restore rolls the network's parameters back to the phase checkpoint.
func (k *TrainKernel) restore() {
	copy(k.w, k.snap)
	copy(k.b, k.snap[len(k.w):])
}

// resetOpt clears the Adam state, so the next step runs as a first step
// from the restored weights.
func (k *TrainKernel) resetOpt() {
	k.adamT = 0
	mathx.Zero(k.m)
	mathx.Zero(k.v)
}

// maxAbsParam is the exploding-weights detector over the flat
// parameters: the largest magnitude, or NaN if any parameter is NaN.
func (k *TrainKernel) maxAbsParam() float64 {
	m := 0.0
	for _, v := range k.w {
		if math.IsNaN(v) {
			return math.NaN()
		}
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	for _, v := range k.b {
		if math.IsNaN(v) {
			return math.NaN()
		}
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}
