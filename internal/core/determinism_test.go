package core

import (
	"bytes"
	"context"
	"math"
	"testing"

	"leapme/internal/dataset"
	"leapme/internal/mathx"
)

// trainAt trains a full matcher pipeline — features, pairs, network — on
// the shared small dataset with the given worker setting and returns the
// serialized model plus the scored test pairs.
func trainAt(t *testing.T, workers int) ([]byte, []ScoredPair) {
	t.Helper()
	d := smallDataset(t, 5)
	opts := DefaultOptions(42)
	opts.Hidden = []int{16, 8}
	opts.Workers = workers
	m, err := NewMatcher(getStore(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := m.ComputeFeatures(ctx, d); err != nil {
		t.Fatal(err)
	}
	pairs := TrainingPairs(d.Props, 2, mathx.NewRand(42))
	if len(pairs) == 0 {
		t.Fatal("no training pairs")
	}
	if _, err := m.Train(ctx, pairs); err != nil {
		t.Fatalf("Train(workers=%d): %v", workers, err)
	}
	var buf bytes.Buffer
	if err := m.WriteModel(&buf); err != nil {
		t.Fatal(err)
	}
	var scored []ScoredPair
	if err := m.MatchAll(ctx, d.Props, func(sp ScoredPair) {
		scored = append(scored, sp)
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), scored
}

// TestPipelineDeterminismAcrossWorkerCounts is the acceptance gate of the
// parallel pipeline: with a fixed seed, -workers=1, -workers=8 and the
// default -workers=0 (all CPUs) must produce bit-identical model weights
// AND bit-identical positive-class scores for every pair.
func TestPipelineDeterminismAcrossWorkerCounts(t *testing.T) {
	refModel, refScores := trainAt(t, 1)
	for _, w := range []int{0, 8} {
		model, scores := trainAt(t, w)
		if !bytes.Equal(refModel, model) {
			t.Fatalf("workers=%d: serialized model differs from workers=1", w)
		}
		if len(scores) != len(refScores) {
			t.Fatalf("workers=%d: %d scored pairs, want %d", w, len(scores), len(refScores))
		}
		for i := range refScores {
			if scores[i].A != refScores[i].A || scores[i].B != refScores[i].B {
				t.Fatalf("workers=%d: pair order diverged at %d", w, i)
			}
			if math.Float64bits(scores[i].Score) != math.Float64bits(refScores[i].Score) {
				t.Fatalf("workers=%d: score for %s×%s = %x, want %x",
					w, scores[i].A, scores[i].B,
					scores[i].Score, refScores[i].Score)
			}
		}
	}
}

// TestComputeFeaturesDeterminismAcrossWorkerCounts: the feature vectors
// themselves must be worker-count independent (ordered merge).
func TestComputeFeaturesDeterminismAcrossWorkerCounts(t *testing.T) {
	d := smallDataset(t, 3)
	vecs := func(workers int) map[dataset.Key][]float64 {
		opts := DefaultOptions(1)
		opts.Workers = workers
		m, err := NewMatcher(getStore(t), opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.ComputeFeatures(context.Background(), d); err != nil {
			t.Fatal(err)
		}
		out := map[dataset.Key][]float64{}
		for k, p := range m.props {
			out[k] = p.Vec
		}
		return out
	}
	ref := vecs(1)
	for _, w := range []int{4, -1} {
		got := vecs(w)
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d props, want %d", w, len(got), len(ref))
		}
		for k, rv := range ref {
			gv, ok := got[k]
			if !ok {
				t.Fatalf("workers=%d: property %s missing", w, k)
			}
			for i := range rv {
				if math.Float64bits(gv[i]) != math.Float64bits(rv[i]) {
					t.Fatalf("workers=%d: %s Vec[%d] bit mismatch", w, k, i)
				}
			}
		}
	}
}
