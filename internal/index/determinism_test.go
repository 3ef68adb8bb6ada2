package index

import (
	"bytes"
	"context"
	"fmt"
	"testing"
)

// TestDeterminismBuildWorkers is the index half of the repo's bit-identity
// gate (`make test-determinism` runs it under GOMAXPROCS 1 and 4): the
// serialized index and every query answer must be byte-for-byte identical
// whether the build used 1 worker or 8.
func TestDeterminismBuildWorkers(t *testing.T) {
	vecs := clusteredVecs(23, 120, 6, 20, 0.2)
	t.Run("lsh", func(t *testing.T) {
		var blobs [][]byte
		var indexes []*Index
		for _, workers := range []int{1, 8} {
			opts := testOpts
			opts.Workers = workers
			ix, err := Build(context.Background(), vecs, opts)
			if err != nil {
				t.Fatalf("Build(workers=%d): %v", workers, err)
			}
			blobs = append(blobs, indexPayload(ix))
			indexes = append(indexes, ix)
		}
		if !bytes.Equal(blobs[0], blobs[1]) {
			t.Fatalf("index bytes differ between workers=1 and workers=8 (%d vs %d bytes)",
				len(blobs[0]), len(blobs[1]))
		}
		for qi := 0; qi < 50; qi++ {
			q := vecs[qi*13%len(vecs)]
			a := fmt.Sprint(indexes[0].Query(q, 10))
			b := fmt.Sprint(indexes[1].Query(q, 10))
			if a != b {
				t.Fatalf("query %d differs between workers=1 and workers=8:\n  %s\n  %s", qi, a, b)
			}
		}
	})
}

// TestDeterminismRepeatedBuild guards against hidden global state: two
// builds in the same process must serialise identically.
func TestDeterminismRepeatedBuild(t *testing.T) {
	vecs := clusteredVecs(31, 60, 5, 16, 0.25)
	t.Run("lsh", func(t *testing.T) {
		var prev []byte
		for run := 0; run < 2; run++ {
			ix, err := Build(context.Background(), vecs, testOpts)
			if err != nil {
				t.Fatalf("Build run %d: %v", run, err)
			}
			raw := indexPayload(ix)
			if prev != nil && !bytes.Equal(prev, raw) {
				t.Fatal("build is not repeatable: bytes differ between runs")
			}
			prev = raw
		}
	})
}

// TestDeterminismSeedSensitivity checks the seed actually reaches the
// hyperplane draws: different seeds must produce different index bytes.
func TestDeterminismSeedSensitivity(t *testing.T) {
	vecs := clusteredVecs(5, 50, 4, 12, 0.2)
	t.Run("lsh", func(t *testing.T) {
		var blobs [][]byte
		for _, seed := range []int64{1, 2} {
			ix, err := Build(context.Background(), vecs, Options{Seed: seed})
			if err != nil {
				t.Fatalf("Build(seed=%d): %v", seed, err)
			}
			blobs = append(blobs, indexPayload(ix))
		}
		if bytes.Equal(blobs[0], blobs[1]) {
			t.Fatal("index bytes identical across different seeds — seed is not wired through")
		}
	})
}
