package nn

import "fmt"

// Kernel is a network's model: all layer weights in one flat row-major
// []float64 slab and all biases in another, with each layer's offsets
// into them, so a forward pass walks two contiguous arrays. Network
// embeds it, New and Read fill it, TrainKernel trains it in place, and
// it runs the forward passes. A Kernel holds no scratch of its own —
// callers thread an explicit scratch buffer through every call.
//
// View contract: NewKernel returns a view of the network's slabs, not a
// copy, so a Kernel is read-only — and safe to share across any number
// of goroutines — only while its Network is not training. Code that
// hands kernels out never trains their networks afterwards: core's
// Train builds a new Network and ReadModel decodes a new one, so
// scorers taken from earlier models keep their weights.
//
// Bit-identity contract: ForwardBatch is the one forward pass, and every
// lane of it produces outputs byte-for-byte identical to the per-layer
// oracle forward pass the tests keep (oracle_test.go: one mathx.Dot per
// unit, then softmax), whatever the batch size and whichever lane of
// which chunk the input rides in. Each lane walks each row with the
// oracle's sequential single-accumulator dot product and the same
// softmax; only the memory layout and the lane interleaving differ. The
// determinism suites and the serve layer's reproducibility guarantee
// rely on this, so any change to the accumulation order here is a
// format-breaking change, not an optimisation.
type Kernel struct {
	layers []kernLayer
	w      []float64 // all layer weights, row-major, concatenated
	b      []float64 // all layer biases, concatenated
	inDim  int
	outDim int
	// maxWidth is the widest activation the kernel ever materialises
	// (max over layer outputs and the input), which sizes the
	// activation scratch of ForwardBatch.
	maxWidth int
}

// kernLayer locates one dense layer inside the flat arrays.
type kernLayer struct {
	rows, cols int
	woff       int // offset of the rows×cols weight block in Kernel.w
	boff       int // offset of the rows biases in Kernel.b
	act        Activation
}

// addLayer appends a rows×cols layer to the layout at the current ends
// of the weight and bias slabs; the caller then appends the layer's
// rows×cols weights and rows biases.
func (k *Kernel) addLayer(rows, cols int, act Activation) {
	if len(k.layers) == 0 {
		k.inDim, k.maxWidth = cols, cols
	}
	k.layers = append(k.layers, kernLayer{rows: rows, cols: cols, woff: len(k.w), boff: len(k.b), act: act})
	k.outDim = rows
	k.maxWidth = max(k.maxWidth, rows)
}

// NewKernel returns n's inference kernel: a view of the network's own
// slabs that allocates and copies nothing. It is read-only while n is not
// training (see the view contract on Kernel).
func NewKernel(n *Network) *Kernel { return &n.Kernel }

// InDim returns the expected input dimension.
func (k *Kernel) InDim() int { return k.inDim }

// OutDim returns the number of output classes.
func (k *Kernel) OutDim() int { return k.outDim }

// BatchScratchLen returns the scratch length ForwardBatch requires for
// n inputs. The batch runs in fixed chunks of eight inputs, so every
// n ≥ 1 needs the same two unit-major activation blocks of
// maxWidth × 8.
func (k *Kernel) BatchScratchLen(n int) int {
	if n <= 0 {
		return 0
	}
	return 2 * gradChunkSize * k.maxWidth
}

// ForwardBatch scores n inputs stored back-to-back in xs (len n*InDim),
// writing softmax probabilities back-to-back into probs (len n*OutDim).
// scratch must have len >= BatchScratchLen(n).
//
// The batch runs in chunks of eight inputs, the lane layout TrainKernel
// trains on: each chunk is transposed unit-major, every layer streams
// each weight row once across the chunk's eight lanes through the
// routines of simd.go, and a per-lane softmax closes it. A partial last
// chunk zero-fills its unused lanes and runs the same routines; nothing
// reads those lanes' outputs. Every lane is the zero-seeded,
// ascending-column mul-then-add chain of a single-input forward pass,
// so results are bit-identical to n separate oracle passes in any batch
// size and at any chunk position — a one-input batch is how a single
// pair is scored.
//
//lint:hotpath gated by TestKernelZeroAllocs
func (k *Kernel) ForwardBatch(probs, xs []float64, n int, scratch []float64) {
	if n < 0 || len(xs) != n*k.inDim {
		panic(fmt.Sprintf("nn: kernel batch input has len %d, want %d", len(xs), n*k.inDim))
	}
	if len(probs) != n*k.outDim {
		panic(fmt.Sprintf("nn: kernel batch output has len %d, want %d", len(probs), n*k.outDim))
	}
	if len(scratch) < k.BatchScratchLen(n) {
		panic(fmt.Sprintf("nn: kernel batch scratch has len %d, want >= %d", len(scratch), k.BatchScratchLen(n)))
	}
	span := gradChunkSize * k.maxWidth
	buf0, buf1 := scratch[:span], scratch[span:2*span]
	for lo := 0; lo < n; lo += gradChunkSize {
		m := min(n-lo, gradChunkSize)
		// Transpose the chunk unit-major: in[c*8+e] is input c of lane
		// e. A pure copy, so layout cannot affect bits. The pad lanes of
		// a partial chunk are zeroed so stale scratch never enters them.
		if m < gradChunkSize {
			clear(buf0[:k.inDim*gradChunkSize])
		}
		for e := 0; e < m; e++ {
			x := xs[(lo+e)*k.inDim : (lo+e+1)*k.inDim]
			for c, v := range x {
				buf0[c*gradChunkSize+e] = v
			}
		}
		cur, out := buf0, buf1
		for li := range k.layers {
			k.layers[li].forwardChunk(out, cur, k.w, k.b)
			cur, out = out, cur
		}
		// Gather each lane's logits into its output row and take the
		// softmax in place: softmax reads z[i] before it writes dst[i].
		for e := 0; e < m; e++ {
			p := probs[(lo+e)*k.outDim : (lo+e+1)*k.outDim]
			for r := range p {
				p[r] = cur[r*gradChunkSize+e]
			}
			softmax(p, p)
		}
	}
}

// forwardChunk computes layer l's activations for one chunk of eight
// inputs held unit-major with stride 8:
//
//	out[r*8+e] = act(Σ_c w[r][c]·in[c*8+e] + b[r])
//
// where w and b are the flat weight and bias slabs l indexes into. Each
// lane is a zero-seeded sequential dot in ascending c, the mathx.Dot
// order of the oracle forward pass, so a lane's bits do not depend on
// the chunk it rides in or on the other lanes. Row pairs run the fused
// two-row routine, an odd last row the single-row one; both add the
// bias and apply ReLU as they store, so a ReLU or identity layer is
// finished in those calls, and a sigmoid or tanh layer applies its
// activation to the biased sums afterwards. Kernel.ForwardBatch and
// TrainKernel's forward pass share it; both pad a partial chunk with
// zero lanes.
func (l *kernLayer) forwardChunk(out, in, w, b []float64) {
	w = w[l.woff : l.woff+l.rows*l.cols]
	b = b[l.boff : l.boff+l.rows]
	relu := l.act == ActReLU
	r := 0
	for ; r+2 <= l.rows; r += 2 {
		fwd2Row8((*[2 * gradChunkSize]float64)(out[r*gradChunkSize:]), in, w[r*l.cols:(r+2)*l.cols], b[r:r+2], relu)
	}
	if r < l.rows {
		fwdRow8((*[gradChunkSize]float64)(out[r*gradChunkSize:]), in, w[r*l.cols:(r+1)*l.cols], b[r:r+1], relu)
	}
	if l.act == ActSigmoid || l.act == ActTanh {
		o := out[:l.rows*gradChunkSize]
		for i, v := range o {
			o[i] = l.act.apply(v)
		}
	}
}
