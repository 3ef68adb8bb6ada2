package serve

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"leapme/internal/chaos"
	"leapme/internal/features"
)

// testModel loads model A into a registry and returns it.
func testModel(t *testing.T) *Model {
	t.Helper()
	fixture(t)
	path := writeModelFile(t, t.TempDir(), "model.leapme", fixModelA)
	reg, err := NewRegistry(fixStore, RegistryOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	md, err := reg.Load("m", path)
	if err != nil {
		t.Fatal(err)
	}
	return md
}

// featurize returns md's features for both sides of every pair.
func featurize(md *Model, pairs []pairSpec) (as, bs []*features.Prop) {
	for _, p := range pairs {
		as = append(as, md.Featurize(p.A.Name, p.A.Values))
		bs = append(bs, md.Featurize(p.B.Name, p.B.Values))
	}
	return as, bs
}

// awaitSpan waits until every pair of sp has its result.
func awaitSpan(t *testing.T, sp *span) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < sp.n(); i++ {
		if _, ok := sp.next(ctx); !ok {
			t.Fatalf("span wait cut short after %d of %d pairs", i, sp.n())
		}
	}
}

func TestBatcherPoisonIsolation(t *testing.T) {
	md := testModel(t)
	met := newMetrics()
	b := newBatcher(2, 8, met, nil)
	defer b.Close()

	as, bs := featurize(md, somePairs(t, 4))
	ref := md.template.Clone()
	want := make([]float64, len(as))
	for i := range as {
		var err error
		if want[i], err = ref.Score(as[i], bs[i]); err != nil {
			t.Fatal(err)
		}
	}
	// A Prop with a truncated feature vector panics inside
	// PairVectorScratch. Placed mid-span it rides in the same batched
	// pass as the good pairs; the guard must fail it alone.
	const bad = 2
	poison := &features.Prop{Name: "poison", Vec: []float64{1}}
	pas := append(append(append([]*features.Prop{}, as[:bad]...), poison), as[bad:]...)
	pbs := append(append(append([]*features.Prop{}, bs[:bad]...), poison), bs[bad:]...)
	sp, err := b.EnqueueSpan(context.Background(), md, pas, pbs, func(i int) string {
		if i == bad {
			return "poison pair"
		}
		return "good pair"
	})
	if err != nil {
		t.Fatal(err)
	}
	awaitSpan(t, sp)

	for i := range pas {
		if i == bad {
			continue
		}
		w := i
		if i > bad {
			w-- // the good pair's index before the poison was spliced in
		}
		if sp.errs[i] != nil {
			t.Errorf("good pair %d failed next to poison: %v", i, sp.errs[i])
		}
		if math.Float64bits(sp.scores[i]) != math.Float64bits(want[w]) {
			t.Errorf("good pair %d scored %x next to poison, want Scorer.Score's %x", i,
				math.Float64bits(sp.scores[i]), math.Float64bits(want[w]))
		}
	}
	if err := sp.errs[bad]; err == nil || !strings.HasPrefix(err.Error(), "serve: scoring poison pair: ") {
		t.Fatalf("poisoned pair error = %v, want it named as serve: scoring poison pair", err)
	}
	if f, ok := met.ScoreFailures.Load(), met.PairsScored.Load(); f != 1 || ok != int64(len(as)) {
		t.Errorf("ScoreFailures = %d, PairsScored = %d; want 1 and %d", f, ok, len(as))
	}

	// The batcher (and its scorer pool) must still work after the panic.
	sp, err = b.EnqueueSpan(context.Background(), md, as[:1], bs[:1], nil)
	if err != nil {
		t.Fatal(err)
	}
	awaitSpan(t, sp)
	if sp.errs[0] != nil || math.Float64bits(sp.scores[0]) != math.Float64bits(want[0]) {
		t.Fatalf("batcher broken after poison: score %v, err %v", sp.scores[0], sp.errs[0])
	}
}

// TestBatcherCoalesces pins the work-conserving policy: pairs that
// queue while every worker is busy ride in shared batches, as few as
// MaxBatch allows. A chaos stall holds the one worker on a first span
// while 24 single-pair spans queue behind it.
func TestBatcherCoalesces(t *testing.T) {
	md := testModel(t)
	met := newMetrics()
	inj := chaos.New(1, chaos.Fault{Point: chaos.PointBatch, Mode: chaos.Stall, Delay: 10 * time.Second, Count: 1})
	const maxBatch = 16
	b := newBatcher(1, maxBatch, met, inj)
	defer b.Close()
	defer inj.Disarm() // before Close, so a failed test does not wait out the stall

	as, bs := featurize(md, somePairs(t, 25))
	if len(as) != 25 {
		t.Fatalf("fixture has %d pairs, want 25", len(as))
	}
	ctx := context.Background()
	first, err := b.EnqueueSpan(ctx, md, as[:1], bs[:1], nil)
	if err != nil {
		t.Fatal(err)
	}
	for inj.Fired(chaos.PointBatch) == 0 {
		time.Sleep(time.Millisecond)
	}
	var spans []*span
	for i := 1; i < len(as); i++ {
		sp, err := b.EnqueueSpan(ctx, md, as[i:i+1], bs[i:i+1], nil)
		if err != nil {
			t.Fatalf("pair %d: %v", i, err)
		}
		spans = append(spans, sp)
	}
	inj.Disarm()
	for i, sp := range append(spans, first) {
		awaitSpan(t, sp)
		if sp.errs[0] != nil {
			t.Errorf("span %d: %v", i, sp.errs[0])
		}
	}
	batches, scored := met.Batches.Load(), met.BatchPairs.Load()
	if scored != int64(len(as)) {
		t.Fatalf("scored %d pairs, want %d", scored, len(as))
	}
	queued := len(as) - 1
	if limit := int64(1 + (queued+maxBatch-1)/maxBatch); batches > limit {
		t.Errorf("%d batches for %d pairs, want at most %d: pairs queued behind a busy worker must share batches", batches, scored, limit)
	}
}

func TestBatcherDrain(t *testing.T) {
	md := testModel(t)
	b := newBatcher(1, 4, newMetrics(), nil)

	ctx := context.Background()
	as, bs := featurize(md, somePairs(t, 6))
	var spans []*span
	for i := range as {
		sp, err := b.EnqueueSpan(ctx, md, as[i:i+1], bs[i:i+1], nil)
		if err != nil {
			t.Fatal(err)
		}
		spans = append(spans, sp)
	}
	b.Close() // must drain: every enqueued pair still gets an answer

	for i, sp := range spans {
		awaitSpan(t, sp)
		if sp.errs[0] != nil {
			t.Errorf("pair %d lost in drain: %v", i, sp.errs[0])
		}
	}
	if _, err := b.EnqueueSpan(ctx, md, as[:1], bs[:1], nil); !errors.Is(err, ErrDraining) {
		t.Errorf("enqueue after Close = %v, want ErrDraining", err)
	}
}
