package parallel

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"
)

func TestResolve(t *testing.T) {
	if got := Resolve(3); got != 3 {
		t.Errorf("Resolve(3) = %d", got)
	}
	if got := Resolve(0); got != 0 {
		t.Errorf("Resolve(0) = %d, want 0 (the caller's default)", got)
	}
	if got := Resolve(-1); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Resolve(-1) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
}

func TestMapOrderedAcrossWorkerCounts(t *testing.T) {
	const n = 100
	fn := func(i int) (float64, error) { return math.Sqrt(float64(i)) * 1.0001, nil }
	ref, rep, err := Map(context.Background(), 1, n, nil, fn)
	if err != nil || rep.Failed() != 0 {
		t.Fatalf("workers=1: err=%v failed=%d", err, rep.Failed())
	}
	for _, w := range []int{2, 4, 8} {
		got, rep, err := Map(context.Background(), w, n, nil, fn)
		if err != nil || rep.Failed() != 0 {
			t.Fatalf("workers=%d: err=%v failed=%d", w, err, rep.Failed())
		}
		for i := range ref {
			if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("workers=%d: out[%d] = %x, want %x", w, i, got[i], ref[i])
			}
		}
	}
}

func TestMapIsolatesPanics(t *testing.T) {
	out, rep, err := Map(context.Background(), 4, 10, nil, func(i int) (int, error) {
		if i == 3 {
			panic("boom")
		}
		if i == 5 {
			return 0, errors.New("unit error")
		}
		return i * 2, nil
	})
	if err != nil {
		t.Fatalf("hard error: %v", err)
	}
	if rep.Failed() != 2 {
		t.Errorf("failed units = %d, want 2", rep.Failed())
	}
	if out[3] != 0 || out[5] != 0 {
		t.Errorf("failed units left non-zero values: %d, %d", out[3], out[5])
	}
	if out[4] != 8 {
		t.Errorf("out[4] = %d, want 8", out[4])
	}
}

func TestForEachCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	_, err := func() (*int, error) {
		rep, err := ForEach(ctx, 2, 1000, nil, func(i int) error {
			select {
			case started <- struct{}{}:
				cancel()
			default:
			}
			time.Sleep(time.Millisecond)
			return nil
		})
		_ = rep
		return nil, err
	}()
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestChunksStructureIsWorkerIndependent(t *testing.T) {
	got := Chunks(10, 4)
	want := []Span{{0, 4}, {4, 8}, {8, 10}}
	if len(got) != len(want) {
		t.Fatalf("Chunks(10,4) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Chunks(10,4)[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if Chunks(0, 4) != nil {
		t.Error("Chunks(0, 4) should be nil")
	}
	if got := Chunks(5, 0); len(got) != 1 || got[0] != (Span{0, 5}) {
		t.Errorf("Chunks(5, 0) = %v, want one full span", got)
	}
}

func TestSeedStreamDeterminismAndSpread(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		s := SeedStream(42, i)
		if s != SeedStream(42, i) {
			t.Fatal("SeedStream is not deterministic")
		}
		if seen[s] {
			t.Fatalf("seed collision at stream %d", i)
		}
		seen[s] = true
	}
	if SeedStream(1, 0) == SeedStream(2, 0) {
		t.Error("different masters produced the same stream 0")
	}
}
