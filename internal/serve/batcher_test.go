package serve

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

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
	b := newBatcher(2, 8, time.Millisecond, met, nil)
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

func TestBatcherCoalesces(t *testing.T) {
	md := testModel(t)
	met := newMetrics()
	// Long flush deadline: concurrent pairs must ride in shared batches.
	b := newBatcher(2, 16, 50*time.Millisecond, met, nil)
	defer b.Close()

	as, bs := featurize(md, somePairs(t, 24))
	var wg sync.WaitGroup
	for i := range as {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp, err := b.EnqueueSpan(context.Background(), md, as[i:i+1], bs[i:i+1], nil)
			if err != nil {
				t.Errorf("pair %d: %v", i, err)
				return
			}
			if _, ok := sp.next(context.Background()); !ok || sp.errs[0] != nil {
				t.Errorf("pair %d: %v", i, sp.errs[0])
			}
		}(i)
	}
	wg.Wait()
	batches, scored := met.Batches.Load(), met.BatchPairs.Load()
	if scored != int64(len(as)) {
		t.Fatalf("scored %d pairs, want %d", scored, len(as))
	}
	if batches >= scored {
		t.Errorf("no coalescing: %d batches for %d pairs", batches, scored)
	}
}

func TestBatcherDrain(t *testing.T) {
	md := testModel(t)
	b := newBatcher(1, 4, time.Millisecond, newMetrics(), nil)

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
