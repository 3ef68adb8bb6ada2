// Package index provides deterministic approximate-nearest-neighbour
// retrieval over property embedding vectors — the sub-linear candidate
// generation layer between internal/blocking and the scorer. A brute-force
// cosine kNN touches every vector per query; at the ROADMAP's
// "millions of properties" scale that is the difference between a request
// and a coffee break. An Index answers "which vectors are near q?" by
// probing a precomputed structure instead, trading a bounded amount of
// recall for orders of magnitude fewer distance evaluations.
//
// The index is seeded random-hyperplane LSH. Each of 12 hash tables
// assigns every vector a signature of about log2(n/4) bits, clamped to
// [6, 14] (one bit per hyperplane: the sign of the projection), so
// bucket occupancy stays in the low single digits at any corpus size. Vectors sharing a signature
// land in one bucket; a query probes its own bucket per table plus 4
// query-directed multiprobe buckets (flipping the bits with the
// smallest projection margin). Collected candidates are ranked by exact
// cosine.
//
// # Determinism
//
// Index construction and querying are bit-deterministic for a fixed
// (vectors, Options.Seed) input, for any Options.Workers value — the same
// guarantee `make test-determinism` enforces for training. The
// determinism analyzer (internal/analysis) covers this package; the
// specific constraints are:
//
//   - All randomness is seeded: hyperplanes draw from
//     mathx.NewRand(parallel.SeedStream(seed, plane)), one decorrelated
//     stream per hyperplane, so plane p's coefficients never depend on
//     who generated plane p-1.
//   - Insertion order is fixed: buckets append ids ascending. Worker
//     count only changes who computes a value, never where it lands
//     (parallel.Map's ordered merge).
//   - Ties break on id: every neighbour ranking orders by
//     (similarity desc, id asc). Float comparison for the tie-break is
//     exact on purpose — a tolerance comparator is not a strict weak
//     ordering and would make sort results schedule-dependent.
//   - No map iteration feeds an ordered result: candidate sets are
//     gathered into slices in probe order, deduplicated with a visited
//     array, and fully sorted before truncation.
//
// Snapshots (an index plus the property keys behind its ids) carry the
// same versioned magic + length + CRC-32 envelope as model files, so a
// serve replica can load a prebuilt index and reject truncated or
// bit-flipped files instead of probing garbage.
package index
