package serve

import (
	"context"
	"testing"

	"leapme/internal/features"
)

// TestSpanAllocRegression pins the allocation profile of the warm
// request path through the batcher: a span costs a fixed handful of
// allocations (the span struct, its result slices and its channel)
// REGARDLESS of how many pairs it carries. The scoring itself — featurization scratch, kernel forward,
// result delivery — must contribute zero allocations per pair; that is
// the property the arena work in core and nn exists to provide, and
// this test is the serve-side gate that keeps it from regressing.
//
// The HTTP layer on top necessarily allocates per pair for JSON; the
// contract pinned here is that the scoring pipeline underneath does not.
func TestSpanAllocRegression(t *testing.T) {
	md := testModel(t)
	// One worker makes batching deterministic: a 32-pair span is exactly
	// one full batch, and a lone 1-pair span goes straight to the idle
	// worker as a batch of its own.
	b := newBatcher(1, 32, newMetrics(), nil)
	defer b.Close()
	ctx := context.Background()

	specs := somePairs(t, 32)
	n := len(specs)
	as := make([]*features.Prop, 0, 32)
	bs := make([]*features.Prop, 0, 32)
	for i := 0; i < 32; i++ {
		sp := specs[i%n]
		as = append(as, md.Featurize(sp.A.Name, sp.A.Values))
		bs = append(bs, md.Featurize(sp.B.Name, sp.B.Values))
	}

	runSpan := func(k int) {
		sp, err := b.EnqueueSpan(ctx, md, as[:k], bs[:k], nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			idx, ok := sp.next(ctx)
			if !ok {
				t.Fatal("span wait cut short")
			}
			if sp.errs[idx] != nil {
				t.Fatal(sp.errs[idx])
			}
		}
	}
	// Warm: grow the scorer clones' arenas, the batch-buffer freelist and
	// the feature cache to steady state.
	for i := 0; i < 3; i++ {
		runSpan(1)
		runSpan(32)
	}

	a1 := testing.AllocsPerRun(20, func() { runSpan(1) })
	a32 := testing.AllocsPerRun(20, func() { runSpan(32) })
	t.Logf("allocs per span: 1 pair = %.1f, 32 pairs = %.1f (marginal %.3f/pair)",
		a1, a32, (a32-a1)/31)
	if a32 > a1+1 {
		t.Errorf("scoring allocates per pair: %.1f allocs for 32 pairs vs %.1f for 1 — the arena path regressed", a32, a1)
	}
	if a32 > 16 {
		t.Errorf("fixed per-span allocation budget exceeded: %.1f allocs, want <= 16", a32)
	}
}

// TestRunBatchFixedAllocs is the dynamic gate behind runBatch's
// //lint:hotpath annotation: calling the span hot loop directly (no
// dispatcher, no HTTP) must cost a fixed handful of allocations with
// zero marginal allocations per pair. The hotalloc cross-check requires this test to exist; deleting
// it fails `make lint`.
func TestRunBatchFixedAllocs(t *testing.T) {
	md := testModel(t)
	b := newBatcher(1, 32, newMetrics(), nil)
	defer b.Close()

	specs := somePairs(t, 32)
	n := len(specs)
	as := make([]*features.Prop, 0, 32)
	bs := make([]*features.Prop, 0, 32)
	for i := 0; i < 32; i++ {
		p := specs[i%n]
		as = append(as, md.Featurize(p.A.Name, p.A.Values))
		bs = append(bs, md.Featurize(p.B.Name, p.B.Values))
	}
	sp := &span{
		model:  md,
		as:     as,
		bs:     bs,
		scores: make([]float64, 32),
		errs:   make([]error, 32),
		resp:   make(chan int, 32),
	}
	batch := make([]pairRef, 32)
	for i := range batch {
		batch[i] = pairRef{sp: sp, idx: i}
	}
	g := newGather(32)
	drain := func(k int) {
		for i := 0; i < k; i++ {
			idx := <-sp.resp
			if sp.errs[idx] != nil {
				t.Fatal(sp.errs[idx])
			}
		}
	}
	// Warm: first acquire clones the scorer and grows its batch arenas.
	for i := 0; i < 3; i++ {
		b.runBatch(batch[:1], g)
		drain(1)
		b.runBatch(batch, g)
		drain(32)
	}
	a1 := testing.AllocsPerRun(20, func() {
		b.runBatch(batch[:1], g)
		drain(1)
	})
	a32 := testing.AllocsPerRun(20, func() {
		b.runBatch(batch, g)
		drain(32)
	})
	t.Logf("runBatch allocs: 1 pair = %.1f, 32 pairs = %.1f", a1, a32)
	if a32 > a1 {
		t.Errorf("runBatch allocates per pair: %.1f allocs for 32 pairs vs %.1f for 1 pair", a32, a1)
	}
	if a32 > 4 {
		t.Errorf("runBatch fixed allocation budget exceeded: %.1f allocs, want <= 4", a32)
	}
}
