package parallel

import (
	"context"
	"runtime"

	"leapme/internal/guard"
)

// Resolve maps a -workers flag value to an effective worker count:
// n > 0 is used as-is, n < 0 means one worker per CPU (GOMAXPROCS), and
// 0 is returned unchanged, so each caller picks its own default for it
// (ForEach and Map use GOMAXPROCS, eval's repetition loop runs
// serially). The default only decides speed: every parallel path in the
// repository gives bit-identical results at every worker count.
func Resolve(n int) int {
	if n < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEach runs fn(0..n-1) on a pool of workers with per-unit panic
// isolation, returning the run's failure report. workers ≤ 0 uses
// GOMAXPROCS. Cancellation is cooperative: a done ctx stops dispatching
// and ForEach returns ctx.Err() once in-flight units finish. Unit
// failures (errors or isolated panics) do not stop the pool; inspect the
// report.
func ForEach(ctx context.Context, workers, n int, label func(i int) string, fn func(i int) error) (*guard.Report, error) {
	return guard.ForEach(ctx, workers, n, label, fn)
}

// Map runs fn(i) for every i in [0, n) across workers and returns the
// results in index order — the ordered merge. out[i] is fn(i)'s value
// regardless of which worker computed it or when, so a caller that folds
// the results left-to-right gets bits identical to the serial loop.
// Units that failed (error or isolated panic) leave the zero value at
// their index; consult the report.
func Map[T any](ctx context.Context, workers, n int, label func(i int) string, fn func(i int) (T, error)) ([]T, *guard.Report, error) {
	out := make([]T, n)
	rep, err := ForEach(ctx, workers, n, label, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	return out, rep, err
}

// Span is a half-open index range [Lo, Hi).
type Span struct{ Lo, Hi int }

// Chunks splits [0, n) into consecutive spans of the given size (the
// last may be shorter). The chunk structure depends only on n and size —
// never on the worker count — which is what makes chunked reductions
// reproducible across worker counts.
func Chunks(n, size int) []Span {
	if n <= 0 {
		return nil
	}
	if size <= 0 {
		size = n
	}
	out := make([]Span, 0, (n+size-1)/size)
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		out = append(out, Span{Lo: lo, Hi: hi})
	}
	return out
}

// SeedStream derives the i-th independent RNG stream from a master seed
// using the SplitMix64 finalizer. Streams are decorrelated even for
// adjacent i (unlike master+i, which feeds nearly identical seeds to
// generators that mix poorly) and depend only on (master, i), so a
// repetition gets the same stream whether it runs first, last, or
// concurrently with all the others.
func SeedStream(master int64, i int) int64 {
	z := uint64(master) + (uint64(i)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}
