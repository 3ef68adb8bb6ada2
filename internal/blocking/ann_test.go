package blocking

import (
	"context"
	"fmt"
	"testing"

	"leapme/internal/dataset"
	"leapme/internal/index"
)

// pairOverlap returns |got ∩ want| / |want|.
func pairOverlap(got, want []dataset.Pair) float64 {
	if len(want) == 0 {
		return 1
	}
	in := make(map[dataset.Pair]bool, len(got))
	for _, p := range got {
		in[p] = true
	}
	hit := 0
	for _, p := range want {
		if in[p] {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}

// annOpts is the index configuration the ANN blocker tests share. The
// tests run as subtest "lsh", the name they had beside a second
// backend, so their IDs stay stable.
var annOpts = index.Options{Seed: 17}

func TestANNBlockerMatchesExactOracle(t *testing.T) {
	_, props := genProps(t, 6)
	store := getStore(t)
	exact := NewEmbeddingBlocker(store).Candidates(props)
	t.Run("lsh", func(t *testing.T) {
		b := NewANNBlocker(store, annOpts)
		cands := b.Candidates(props)
		for _, c := range cands {
			if c.A.Source == c.B.Source {
				t.Fatal("same-source candidate")
			}
			if c.Canonical() != c {
				t.Fatalf("non-canonical pair %v", c)
			}
		}
		rec := pairOverlap(cands, exact)
		t.Logf("%d candidates vs %d exact, recall_vs_exact=%.3f", len(cands), len(exact), rec)
		if rec < 0.9 {
			t.Errorf("recall vs exact oracle = %.3f, want ≥ 0.9", rec)
		}
		q := Measure(cands, props)
		if q.PairCompleteness < 0.6 {
			t.Errorf("pair completeness = %.3f, want ≥ 0.6", q.PairCompleteness)
		}
	})
}

// TestANNBlockerName pins the name that labels the ANN rows of
// BENCH_blocking.json.
func TestANNBlockerName(t *testing.T) {
	if got := NewANNBlocker(getStore(t), index.Options{}).Name(); got != "ann-lsh" {
		t.Errorf("name = %q, want ann-lsh", got)
	}
}

func TestANNBlockerEmptyAndCancelled(t *testing.T) {
	store := getStore(t)
	b := NewANNBlocker(store, index.Options{Seed: 1})
	if got := b.Candidates(nil); got != nil {
		t.Errorf("empty props produced %d candidates", len(got))
	}
	_, props := genProps(t, 7)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := b.CandidatesCtx(ctx, props); err == nil {
		t.Error("cancelled context did not abort CandidatesCtx")
	}
}

func TestANNBlockerSnapshotPath(t *testing.T) {
	_, props := genProps(t, 8)
	store := getStore(t)
	opts := index.Options{Seed: 3}

	snap, err := index.BuildSnapshot(context.Background(), store, props, opts)
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewANNBlocker(store, opts)
	snapped := NewANNBlocker(store, opts)
	snapped.Snapshot = snap

	a, b := fresh.Candidates(props), snapped.Candidates(props)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("snapshot-served candidates differ from fresh build: %d vs %d pairs", len(a), len(b))
	}

	// A property outside the snapshot must trigger the ephemeral-build
	// fallback, not silently lose the property.
	extra := append(append([]dataset.Property{}, props...),
		dataset.Property{Source: "s-new", Name: "totally new property"})
	c, err := snapped.CandidatesCtx(context.Background(), extra)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.CandidatesCtx(context.Background(), extra)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(c) != fmt.Sprint(want) {
		t.Fatal("stale-snapshot fallback differs from a fresh build")
	}
}

func TestANNBlockerUnionWithToken(t *testing.T) {
	_, props := genProps(t, 9)
	store := getStore(t)
	ann := NewANNBlocker(store, index.Options{Seed: 4})
	u := Union{NewTokenBlocker(), ann}
	if u.Name() != "union(token+ann-lsh)" {
		t.Errorf("union name = %q", u.Name())
	}
	qa := Measure(ann.Candidates(props), props)
	qu := Measure(u.Candidates(props), props)
	if qu.PairCompleteness < qa.PairCompleteness {
		t.Error("union completeness below the ANN member's")
	}
	if qu.PairCompleteness < 0.9 {
		t.Errorf("union completeness = %.3f, want ≥ 0.9", qu.PairCompleteness)
	}
}

// TestDeterminismANNBlocker runs under the repo-wide determinism gate:
// the proposed pair list must be identical for any worker count.
func TestDeterminismANNBlocker(t *testing.T) {
	_, props := genProps(t, 10)
	store := getStore(t)
	t.Run("lsh", func(t *testing.T) {
		var prev []dataset.Pair
		for _, workers := range []int{1, 8} {
			opts := annOpts
			opts.Workers = workers
			cands := NewANNBlocker(store, opts).Candidates(props)
			if prev != nil && fmt.Sprint(prev) != fmt.Sprint(cands) {
				t.Fatalf("candidates differ between workers=1 and workers=8 (%d vs %d pairs)",
					len(prev), len(cands))
			}
			prev = cands
		}
	})
}
