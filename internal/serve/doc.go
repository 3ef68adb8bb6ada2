// Package serve turns a trained LEAPME matcher into a long-lived
// matching service: an HTTP JSON API backed by a hot-swappable model
// registry, a micro-batching scorer and a per-model feature cache. It is
// the deployment shape the paper's downstream consumers (schema and
// entity integration pipelines) assume — a match oracle that stays warm
// instead of re-loading the model and re-featurizing every property on
// each invocation.
//
// # Endpoints
//
//	POST /v1/match      score explicit property pairs
//	POST /v1/match/all  cross-source matching with optional blocking
//	GET  /v1/models     list loaded models (core.ModelInfo per model)
//	POST /v1/models     {"activate": name} or {"reload": true}
//	GET  /healthz       liveness (always 200 while the process runs)
//	GET  /readyz        readiness (200 once a model is active; 503 when
//	                    draining or when the admission queue is above its
//	                    high-water mark — "degraded")
//	GET  /metrics       Prometheus text exposition
//
// # Model registry
//
// The Registry maps names to immutable *Model values. A Model bundles a
// core.Scorer snapshot (a read-only view of the loaded network's weight
// slabs, which nothing trains again), a pool of per-worker scorer
// clones, the file's core.ModelInfo and a feature cache. Handlers resolve their Model pointer once at request arrival;
// Load and Activate replace map entries and swing an atomic active
// pointer, so a hot swap never mutates a model an in-flight request is
// holding — old versions serve until their last request finishes, then
// fall to the garbage collector. Reload re-reads every model's file from
// disk (the SIGHUP path); a model that fails to re-load keeps serving its
// previous version and the error is reported, never a gap in service.
//
// # Micro-batching scorer
//
// Concurrent pair-scoring requests are coalesced by a dispatcher into
// batches of at most MaxBatch pairs (default 32). The policy is
// work-conserving: a batch goes to the first idle worker as soon as one
// is free, after taking in every request already queued, and it grows
// further only while every worker is busy. A lone request is therefore
// scored at once, and batches fill up exactly when the pool saturates;
// no timer holds a batch back. A pool of workers executes batches. A
// worker gathers each run of same-model pairs into its own buffers,
// checks a scorer clone out of that model and scores the run with
// core.Scorer.ScoreIsolated: one batched forward pass for the whole
// run, while distinct workers score in parallel on independent clones.
// A pair that panics or errors (a poisoned input) fails alone:
// internal/guard recovers the batch, the run is scored again pair by
// pair, and only that pair carries an error, counted in the metrics.
// Its request still answers 200, with the error in that pair's result;
// only a request whose every pair failed answers 500. The server and
// the rest of the batch keep going.
//
// # Feature cache
//
// Featurizing a property is the expensive half of serving (hundreds of
// dimensions aggregated over instance values plus name embeddings), and
// real workloads repeat properties across requests. Each Model owns an
// LRU cache of *features.Prop keyed by the SHA-256 digest of the
// property's content (name and values, length-framed). Keying the cache
// per model version — a fresh cache per load — keeps cached vectors
// trivially consistent with the active featurizer; cached and uncached
// scoring are bit-identical because the cache stores the immutable Prop
// itself, not a recomputation.
//
// # Admission control and deadlines
//
// In front of the batcher sits a bounded admission gate counting pairs
// (the batcher's unit of work) across all in-flight requests. A request
// is admitted all-or-nothing: if its pairs would push the count past
// Config.MaxQueuedPairs it sheds immediately with a typed 429 —
// {"error", "code": "overloaded", "retry_after_ms"} plus a Retry-After
// header — so the queue is bounded by construction, never by OOM. Above
// HighWaterFrac of the bound /readyz degrades to 503 while scoring
// continues, steering load balancers away before shedding starts; the
// gauges leapme_queue_depth and leapme_degraded expose the same state.
//
// Every request also runs under a deadline budget: Config.DefaultDeadline
// unless the client sends X-Leapme-Deadline-Ms (clamped to MaxDeadline).
// The budget context threads through EnqueueSpan and the span's result
// wait, so the waiters of a slow or stalled batch answer a typed 504
// ("deadline_exceeded") while the worker finishes into buffered response
// channels — an abandoned waiter can never wedge the pool. All error
// answers share the typed JSON vocabulary: a message and a
// machine-readable code.
//
// # Fault injection
//
// Config.Chaos accepts an *chaos.Injector (nil in production — the hooks
// cost one nil check). The serving layer exposes three points: PointScore
// inside each pair's own guard unit as its run is gathered (panic
// isolation: the pair fails alone and skips the scorer), PointBatch
// before each batch (latency/stall), and PointReload around model-file
// reads (corrupt bytes failing the CRC). The chaos test suite (`make
// test-chaos`) drives these under -race to prove the admission,
// deadline, reload and drain invariants end-to-end; injections are
// seeded and replay deterministically.
//
// # Shutdown
//
// Close flips readiness off, stops admitting scoring work, drains queued
// batches and waits for workers — the counterpart to http.Server's
// connection drain. Scoring work submitted after Close answers a typed
// 503 ("draining"); already-admitted pairs still get their answers.
// cmd/leapme-serve wires both to SIGINT/SIGTERM with a drain deadline and
// exits 130 on signal, matching the CLI convention established in
// cmd/leapme.
package serve
