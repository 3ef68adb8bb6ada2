// Package parallel provides the deterministic worker-pool primitives the
// training and featurization pipelines fan out on. Every primitive is
// designed so that the *result* of a computation depends only on its
// inputs — never on the worker count or on goroutine scheduling — which
// is what lets `-workers=8` be proven bit-identical to `-workers=1`
// (see `make test-determinism`).
//
// The three building blocks:
//
//   - ForEach / Map: a bounded worker pool with per-unit panic isolation
//     (via internal/guard) whose results are merged in index order. A
//     pure map followed by an in-order reduce is bit-identical to the
//     serial loop for any worker count, because the floating-point
//     additions happen in exactly the serial order.
//
//   - Chunks: when the per-unit accumulation itself must be parallelised
//     (mini-batch gradients), the work is split into fixed-size chunks —
//     the chunk structure depends only on the input length, never on the
//     worker count — and the caller folds the per-chunk partial sums in a
//     fixed order (nn's TrainKernel uses a binary tree). The grouping of
//     additions is then a pure function of the input size, so any worker
//     count produces the same bits.
//
//   - SeedStream: per-repetition RNG streams derived from a master seed
//     with SplitMix64, so repetition i consumes the same random sequence
//     no matter how many repetitions run concurrently or in what order
//     they are scheduled.
package parallel
