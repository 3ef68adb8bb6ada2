package nn

import (
	"context"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"leapme/internal/mathx"
	"leapme/internal/parallel"
)

// matrix is a dense row-major matrix of float64, the per-layer view the
// oracle computes in. Its methods are the mathx vector kernels applied
// row by row, in the order the flat kernels are pinned to.
type matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// newMatrix allocates a zeroed rows×cols matrix.
func newMatrix(rows, cols int) *matrix {
	return &matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Row returns row i as a mutable slice view into the matrix.
func (m *matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Zero resets all elements of m to 0.
func (m *matrix) Zero() { mathx.Zero(m.Data) }

// MulVec computes dst = m · x, one mathx.Dot per row.
func (m *matrix) MulVec(dst, x []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("oracle: MulVec shape mismatch: %dx%d by %d into %d", m.Rows, m.Cols, len(x), len(dst)))
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] = mathx.Dot(m.Row(i), x)
	}
}

// MulVecT computes dst = mᵀ · x without materialising the transpose:
// dst starts at zero and accumulates x[i]·row i in ascending i.
func (m *matrix) MulVecT(dst, x []float64) {
	if len(x) != m.Rows || len(dst) != m.Cols {
		panic(fmt.Sprintf("oracle: MulVecT shape mismatch: %dx%d by %d into %d", m.Rows, m.Cols, len(x), len(dst)))
	}
	mathx.Zero(dst)
	for i := 0; i < m.Rows; i++ {
		axpyTo(dst, x[i], m.Row(i))
	}
}

// AddOuterTo accumulates m += alpha · x ⊗ y, skipping rows whose x is 0.
func (m *matrix) AddOuterTo(alpha float64, x, y []float64) {
	if len(x) != m.Rows || len(y) != m.Cols {
		panic("oracle: AddOuterTo shape mismatch")
	}
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		axpyTo(m.Row(i), alpha*xi, y)
	}
}

// Scale multiplies every element of m by s in place.
func (m *matrix) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// AddScaled accumulates m += alpha · other, element-wise.
func (m *matrix) AddScaled(alpha float64, other *matrix) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic("oracle: AddScaled shape mismatch")
	}
	axpyTo(m.Data, alpha, other.Data)
}

func TestMatrixBasics(t *testing.T) {
	m := newMatrix(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("newMatrix = %+v", m)
	}
	r := m.Row(1)
	r[0] = 42
	if m.Data[3] != 42 {
		t.Error("Row must be a view, not a copy")
	}
	m.Zero()
	for _, v := range m.Data {
		if v != 0 {
			t.Fatalf("Zero left %v", m.Data)
		}
	}
}

func TestMulVec(t *testing.T) {
	m := newMatrix(2, 2)
	copy(m.Data, []float64{1, 2, 3, 4})
	dst := make([]float64, 2)
	m.MulVec(dst, []float64{1, 1})
	if dst[0] != 3 || dst[1] != 7 {
		t.Errorf("MulVec = %v", dst)
	}
}

func TestMulVecTMatchesTranspose(t *testing.T) {
	f := func(vals [12]float64, x [3]float64) bool {
		m := newMatrix(3, 4)
		copy(m.Data, vals[:])
		got := make([]float64, 4)
		m.MulVecT(got, x[:])
		for j := range got {
			var want float64 // column j of m, dotted with x
			for i := 0; i < m.Rows; i++ {
				want += m.Row(i)[j] * x[i]
			}
			if math.Abs(got[j]-want) > 1e-6*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddOuterTo(t *testing.T) {
	m := newMatrix(2, 2)
	m.AddOuterTo(2, []float64{1, 2}, []float64{3, 4})
	// 2 * [1;2]·[3 4] = [[6,8],[12,16]]
	if m.Data[0] != 6 || m.Data[1] != 8 || m.Data[2] != 12 || m.Data[3] != 16 {
		t.Errorf("AddOuterTo = %v", m.Data)
	}
}

func TestCloneAndScale(t *testing.T) {
	m := newMatrix(1, 2)
	copy(m.Data, []float64{1, 2})
	c := newMatrix(1, 2)
	copy(c.Data, m.Data)
	c.Scale(10)
	if m.Data[0] != 1 || c.Data[0] != 10 {
		t.Error("Scale broken")
	}
	c.AddScaled(1, m)
	if c.Data[1] != 22 {
		t.Errorf("AddScaled = %v", c.Data)
	}
}

// oracleLayer is one dense layer of a network seen through matrix views
// of the network's slabs: writes through w and b update the network.
type oracleLayer struct {
	w   *matrix   // rows×cols view of the weight slab
	b   []float64 // view of the bias slab
	act Activation
}

// oracleLayers returns per-layer views of n's weight and bias slabs.
func oracleLayers(n *Network) []oracleLayer {
	out := make([]oracleLayer, len(n.layers))
	for i, l := range n.layers {
		out[i] = oracleLayer{
			w:   &matrix{Rows: l.rows, Cols: l.cols, Data: n.w[l.woff : l.woff+l.rows*l.cols]},
			b:   n.b[l.boff : l.boff+l.rows],
			act: l.act,
		}
	}
	return out
}

// oracleForward is the per-layer forward pass the kernels are pinned to:
// one mathx.Dot per unit (matrix.MulVec), the bias added after the dot,
// the activation, and a softmax over the last layer's outputs. It
// returns the class probabilities.
func oracleForward(n *Network, x []float64) []float64 {
	h := x
	for _, l := range oracleLayers(n) {
		out := make([]float64, l.w.Rows)
		l.w.MulVec(out, h)
		for i := range out {
			out[i] = l.act.apply(out[i] + l.b[i])
		}
		h = out
	}
	p := make([]float64, len(h))
	softmax(p, h)
	return p
}

// axpyTo computes dst += alpha*x, element by element in ascending order:
// the accumulation every matrix kernel of the oracle runs.
func axpyTo(dst []float64, alpha float64, x []float64) {
	if len(dst) != len(x) {
		panic("oracle: axpyTo length mismatch")
	}
	for i := range x {
		dst[i] += alpha * x[i]
	}
}

func TestAxpyTo(t *testing.T) {
	dst := []float64{1, 1}
	axpyTo(dst, 2, []float64{3, 4})
	if dst[0] != 7 || dst[1] != 9 {
		t.Errorf("axpyTo = %v", dst)
	}
}

// argMax returns the index of the maximum element of v, or -1 for an
// empty slice. Ties resolve to the lowest index, as Network.Classify's do.
func argMax(v []float64) int {
	if len(v) == 0 {
		return -1
	}
	best, arg := v[0], 0
	for i, x := range v[1:] {
		if x > best {
			best, arg = x, i+1
		}
	}
	return arg
}

func TestArgMax(t *testing.T) {
	v := []float64{3, -1, 7, 7, 0}
	if got := argMax(v); got != 2 {
		t.Errorf("argMax = %v, want first of tied maxima", got)
	}
	if got := argMax(nil); got != -1 {
		t.Errorf("argMax(nil) = %v", got)
	}
}

// treeReduce folds n buffers pairwise in a fixed binary-tree order:
// stride 1 merges buffer i+1 into buffer i for even i, stride 2 merges
// i+2 into i for i ≡ 0 (mod 4), and so on; buffer 0 ends up holding the
// total. merge(dst, src) must fold buffer src into buffer dst. It is the
// order TrainKernel.reduceGrads replays element-wise.
func treeReduce(n int, merge func(dst, src int)) {
	for stride := 1; stride < n; stride *= 2 {
		for i := 0; i+stride < n; i += 2 * stride {
			merge(i, i+stride)
		}
	}
}

func TestTreeReduceOrderIsFixed(t *testing.T) {
	var seq []string
	treeReduce(5, func(dst, src int) { seq = append(seq, fmt.Sprintf("%d<-%d", dst, src)) })
	want := []string{"0<-1", "2<-3", "0<-2", "0<-4"}
	if len(seq) != len(want) {
		t.Fatalf("merge sequence = %v, want %v", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("merge sequence = %v, want %v", seq, want)
		}
	}
}

func TestTreeReduceSums(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16, 33} {
		buf := make([]int, n)
		want := 0
		for i := range buf {
			buf[i] = i + 1
			want += i + 1
		}
		treeReduce(n, func(dst, src int) { buf[dst] += buf[src] })
		if buf[0] != want {
			t.Errorf("n=%d: sum = %d, want %d", n, buf[0], want)
		}
	}
}

// oracleClassify returns the most probable class for x.
func oracleClassify(n *Network, x []float64) int { return argMax(oracleForward(n, x)) }

// chunkedFit is the reference trainer TrainKernel's bytes are pinned to:
// the per-example chunked path Network.Fit ran at Workers ≥ 1 before the
// kernel became the only trainer. Every example runs its own forward and
// backward pass over per-layer matrices; a batch splits into
// gradChunkSize-example chunks whose gradients accumulate in example
// order, the chunk partials fold with treeReduce, and Adam updates
// layer by layer, all through oracleLayers views of
// the network's slabs. It runs single-threaded — the chunk structure,
// not the scheduling, defines the bits — and expects valid input.
func chunkedFit(ctx context.Context, n *Network, xs [][]float64, ys []int, cfg TrainConfig) (float64, error) {
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

	layers := oracleLayers(n)
	rng := mathx.NewRand(cfg.Seed)
	order := make([]int, len(xs))
	for i := range order {
		order[i] = i
	}
	slots := make([]*oracleSlot, (cfg.BatchSize+gradChunkSize-1)/gradChunkSize)
	for i := range slots {
		slots[i] = newOracleSlot(layers)
	}
	grad := zeroParams(layers)
	opt := &oracleOpt{}

	var lastLoss float64
	epoch := 0
	for pi, phase := range cfg.Schedule {
		lr := phase.LR
		snap := netParams(n)
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
				idx := order[start:end]
				chunks := parallel.Chunks(len(idx), gradChunkSize)
				for ci, c := range chunks {
					s := slots[ci]
					s.zero()
					for _, ei := range idx[c.Lo:c.Hi] {
						s.loss += s.example(layers, xs[ei], ys[ei])
					}
				}
				treeReduce(len(chunks), func(dst, src int) { slots[dst].merge(slots[src]) })
				inv := 1 / float64(end-start)
				for li := range layers {
					grad.w[li].Zero()
					mathx.Zero(grad.b[li])
					grad.w[li].AddScaled(1, slots[0].gw[li])
					mathx.AddTo(grad.b[li], grad.b[li], slots[0].gb[li])
					grad.w[li].Scale(inv)
					mathx.ScaleTo(grad.b[li], grad.b[li], inv)
				}
				epochLoss += slots[0].loss
				opt.step(layers, grad, lr)
				if math.IsNaN(epochLoss) || math.IsInf(epochLoss, 0) {
					break
				}
			}

			reason := ""
			if math.IsNaN(epochLoss) || math.IsInf(epochLoss, 0) {
				reason = "non-finite loss"
			} else if m := maxAbsWeight(n); math.IsNaN(m) || m > cfg.ExplodeThreshold {
				reason = fmt.Sprintf("exploding weights (max |w| = %g)", m)
			}
			if reason != "" {
				retries++
				setNetParams(n, snap)
				if retries > cfg.MaxPhaseRetries {
					return lastLoss, fmt.Errorf("%w: phase %d: %s after %d recovery attempts",
						ErrDiverged, pi, reason, cfg.MaxPhaseRetries)
				}
				opt.reset()
				lr *= cfg.LRBackoff
				if cfg.OnRecovery != nil {
					cfg.OnRecovery(pi, retries, lr, reason)
				}
				e = -1
				continue
			}

			lastLoss = epochLoss / float64(len(xs))
			if cfg.OnEpoch != nil {
				cfg.OnEpoch(epoch, lastLoss)
			}
			epoch++
		}
	}
	return lastLoss, nil
}

// params holds one value per network parameter, per layer.
type params struct {
	w []*matrix
	b [][]float64
}

func zeroParams(layers []oracleLayer) params {
	var p params
	for _, l := range layers {
		p.w = append(p.w, newMatrix(l.w.Rows, l.w.Cols))
		p.b = append(p.b, make([]float64, l.w.Rows))
	}
	return p
}

// oracleSlot is one chunk's per-example scratch plus its gradient sums.
type oracleSlot struct {
	ins, outs, deltas [][]float64
	probs             []float64
	gw                []*matrix
	gb                [][]float64
	loss              float64
}

func newOracleSlot(layers []oracleLayer) *oracleSlot {
	g := zeroParams(layers)
	s := &oracleSlot{probs: make([]float64, layers[len(layers)-1].w.Rows), gw: g.w, gb: g.b}
	for _, l := range layers {
		s.ins = append(s.ins, make([]float64, l.w.Cols))
		s.outs = append(s.outs, make([]float64, l.w.Rows))
		s.deltas = append(s.deltas, make([]float64, l.w.Rows))
	}
	return s
}

func (s *oracleSlot) zero() {
	for i := range s.gw {
		s.gw[i].Zero()
		mathx.Zero(s.gb[i])
	}
	s.loss = 0
}

func (s *oracleSlot) merge(src *oracleSlot) {
	for i := range s.gw {
		s.gw[i].AddScaled(1, src.gw[i])
		mathx.AddTo(s.gb[i], s.gb[i], src.gb[i])
	}
	s.loss += src.loss
}

// example runs one forward and backward pass, accumulates the example's
// gradients into the slot and returns its cross-entropy loss.
func (s *oracleSlot) example(layers []oracleLayer, x []float64, label int) float64 {
	h := x
	for li, l := range layers {
		copy(s.ins[li], h)
		out := s.outs[li]
		l.w.MulVec(out, h)
		for i := range out {
			out[i] = l.act.apply(out[i] + l.b[i])
		}
		h = out
	}
	softmax(s.probs, h)

	last := len(layers) - 1
	for i := range s.deltas[last] {
		s.deltas[last][i] = s.probs[i]
		if i == label {
			s.deltas[last][i] -= 1
		}
	}
	for li := last; li > 0; li-- {
		s.gw[li].AddOuterTo(1, s.deltas[li], s.ins[li])
		mathx.AddTo(s.gb[li], s.gb[li], s.deltas[li])
		layers[li].w.MulVecT(s.deltas[li-1], s.deltas[li])
		prevAct := layers[li-1].act
		for i := range s.deltas[li-1] {
			s.deltas[li-1][i] *= prevAct.derivFromOutput(s.outs[li-1][i])
		}
	}
	s.gw[0].AddOuterTo(1, s.deltas[0], s.ins[0])
	mathx.AddTo(s.gb[0], s.gb[0], s.deltas[0])

	p := s.probs[label]
	if p < 1e-12 {
		p = 1e-12
	}
	return -math.Log(p)
}

// oracleOpt applies the Adam update rule layer by layer, with the
// moments in per-layer matrices.
type oracleOpt struct {
	t    int
	m, v params
}

func (o *oracleOpt) reset() { o.t, o.m, o.v = 0, params{}, params{} }

func (o *oracleOpt) step(layers []oracleLayer, g params, lr float64) {
	if o.m.w == nil {
		o.m, o.v = zeroParams(layers), zeroParams(layers)
	}
	// Variables, not the constants: 1-b1 must round as the kernel's
	// float64 arithmetic does, not fold exactly as constant arithmetic.
	b1, b2, eps := adamBeta1, adamBeta2, adamEps
	o.t++
	c1 := 1 - math.Pow(b1, float64(o.t))
	c2 := 1 - math.Pow(b2, float64(o.t))
	upd := func(w, g, m, v []float64) {
		for j, gv := range g {
			m[j] = b1*m[j] + (1-b1)*gv
			v[j] = b2*v[j] + (1-b2)*gv*gv
			w[j] -= lr * (m[j] / c1) / (math.Sqrt(v[j]/c2) + eps)
		}
	}
	for i, l := range layers {
		upd(l.w.Data, g.w[i].Data, o.m.w[i].Data, o.v.w[i].Data)
		upd(l.b, g.b[i], o.m.b[i], o.v.b[i])
	}
}

// netParams copies the network's parameters: the weight slab, then the
// bias slab.
func netParams(n *Network) []float64 {
	return append(append([]float64(nil), n.w...), n.b...)
}

// setNetParams writes a netParams copy back into the network.
func setNetParams(n *Network, p []float64) {
	copy(n.b, p[copy(n.w, p):])
}

// maxAbsWeight is the exploding-weights detector over a network's
// parameters: the largest magnitude, or NaN if any parameter is NaN.
func maxAbsWeight(n *Network) float64 {
	m := 0.0
	for _, v := range netParams(n) {
		if math.IsNaN(v) {
			return math.NaN()
		}
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}
