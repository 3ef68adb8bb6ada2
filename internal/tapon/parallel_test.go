package tapon

import (
	"context"
	"math"
	"testing"
)

// TestLabelerDeterminismAcrossWorkerCounts: train + label with Workers=1,
// Workers=8 and the default Workers=0 must agree bit for bit — labels,
// confidences, and phase-1 opinions.
func TestLabelerDeterminismAcrossWorkerCounts(t *testing.T) {
	store := getStore(t)
	train := genData(t, 6, 4)
	test := genData(t, 61, 2)
	at := func(workers int) []Prediction {
		opts := DefaultOptions(17)
		opts.Workers = workers
		l, err := New(store, cameraClasses(), opts)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if err := l.Train(ctx, train); err != nil {
			t.Fatalf("Train(workers=%d): %v", workers, err)
		}
		preds, err := l.Label(ctx, test)
		if err != nil {
			t.Fatalf("Label(workers=%d): %v", workers, err)
		}
		return preds
	}
	ref := at(1)
	if len(ref) == 0 {
		t.Fatal("no predictions")
	}
	for _, w := range []int{0, 8} {
		got := at(w)
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d predictions, want %d", w, len(got), len(ref))
		}
		for i := range ref {
			if got[i].Key != ref[i].Key || got[i].Label != ref[i].Label ||
				got[i].Phase1Label != ref[i].Phase1Label {
				t.Fatalf("workers=%d: prediction %d = %+v, want %+v", w, i, got[i], ref[i])
			}
			if math.Float64bits(got[i].Confidence) != math.Float64bits(ref[i].Confidence) {
				t.Fatalf("workers=%d: confidence for %s = %x, want %x",
					w, got[i].Key, got[i].Confidence, ref[i].Confidence)
			}
		}
	}
}
