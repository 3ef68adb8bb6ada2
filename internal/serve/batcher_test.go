package serve

import (
	"context"
	"errors"
	"fmt"
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

func TestBatcherPoisonIsolation(t *testing.T) {
	md := testModel(t)
	b := newBatcher(2, 8, time.Millisecond, newMetrics(), nil)
	defer b.Close()

	good := somePairs(t, 4)
	ctx := context.Background()
	// A Prop with a truncated feature vector panics inside PairVectorScratch —
	// the guard must turn that into an error for that pair alone.
	poison := &features.Prop{Name: "poison", Vec: []float64{1}}

	var handles []*pending
	for i, p := range good {
		pa := md.Featurize(p.A.Name, p.A.Values)
		pb := md.Featurize(p.B.Name, p.B.Values)
		h, err := b.Enqueue(ctx, md, pa, pb, fmt.Sprintf("good %d", i))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	bad, err := b.Enqueue(ctx, md, poison, poison, "poison pair")
	if err != nil {
		t.Fatal(err)
	}

	for i, h := range handles {
		score, err := b.Await(ctx, h)
		if err != nil {
			t.Errorf("good pair %d failed next to poison: %v", i, err)
		}
		if score < 0 || score > 1 {
			t.Errorf("good pair %d score out of range: %v", i, score)
		}
	}
	if _, err := b.Await(ctx, bad); err == nil {
		t.Fatal("poisoned pair did not error")
	}

	// The batcher (and its scorer pool) must still work after the panic.
	p := good[0]
	if _, err := b.Score(ctx, md,
		md.Featurize(p.A.Name, p.A.Values),
		md.Featurize(p.B.Name, p.B.Values), "post-poison"); err != nil {
		t.Fatalf("batcher broken after poison: %v", err)
	}
}

func TestBatcherCoalesces(t *testing.T) {
	md := testModel(t)
	met := newMetrics()
	// Long flush deadline: concurrent pairs must ride in shared batches.
	b := newBatcher(2, 16, 50*time.Millisecond, met, nil)
	defer b.Close()

	pairs := somePairs(t, 24)
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := range pairs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := pairs[i]
			pa := md.Featurize(p.A.Name, p.A.Values)
			pb := md.Featurize(p.B.Name, p.B.Values)
			if _, err := b.Score(ctx, md, pa, pb, "pair"); err != nil {
				t.Errorf("pair %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	batches, scored := met.Batches.Load(), met.BatchPairs.Load()
	if scored != int64(len(pairs)) {
		t.Fatalf("scored %d pairs, want %d", scored, len(pairs))
	}
	if batches >= scored {
		t.Errorf("no coalescing: %d batches for %d pairs", batches, scored)
	}
}

func TestBatcherDrain(t *testing.T) {
	md := testModel(t)
	b := newBatcher(1, 4, time.Millisecond, newMetrics(), nil)

	ctx := context.Background()
	pairs := somePairs(t, 6)
	var handles []*pending
	for _, p := range pairs {
		pa := md.Featurize(p.A.Name, p.A.Values)
		pb := md.Featurize(p.B.Name, p.B.Values)
		h, err := b.Enqueue(ctx, md, pa, pb, "pair")
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	b.Close() // must drain: every enqueued pair still gets an answer

	for i, h := range handles {
		if _, err := b.Await(ctx, h); err != nil {
			t.Errorf("pair %d lost in drain: %v", i, err)
		}
	}
	p := pairs[0]
	_, err := b.Enqueue(ctx, md,
		md.Featurize(p.A.Name, p.A.Values),
		md.Featurize(p.B.Name, p.B.Values), "late")
	if !errors.Is(err, ErrDraining) {
		t.Errorf("enqueue after Close = %v, want ErrDraining", err)
	}
}
