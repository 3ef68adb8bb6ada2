// Package analysis is the catalogue of leapme's domain-specific static
// analyzers, run by cmd/leapme-lint (`make lint`, and the "Lint
// (leapme-lint)" CI step). Each analyzer turns one of the repository's
// documented runtime invariants into a compile-time check:
//
//	determinism  wall-clock reads, the global math/rand source and
//	             map-iteration-order accumulation are forbidden inside
//	             the packages behind the -workers reproducibility
//	             guarantee (nn, features, eval, core, parallel), the
//	             fault injector's seeded, replayable schedules (chaos),
//	             the ANN retrieval layer promising bit-identical indexes
//	             and candidate sets for any worker count (index,
//	             blocking), the GloVe store's golden bytes (embedding),
//	             the paper tables' baselines and clusterings (baselines,
//	             ml, graph), and the generated datasets and the kernels
//	             every feature goes through (dataset, domain, text,
//	             mathx). Seeded *rand.Rand values (mathx.NewRand,
//	             parallel.SeedStream) and the collect-keys-then-sort map
//	             pattern stay legal.
//	guardgo      goroutine launches must route through internal/guard
//	             (guard.Go / guard.ForEach) so panics land in a
//	             guard.Report instead of killing the process.
//	ctxflow      a named context.Context parameter must be consulted;
//	             unbounded or channel loops in ctx-holding functions
//	             must check ctx; context.Background()/TODO() must not
//	             be minted in loops or in exported functions that take
//	             no ctx.
//	floateq      == and != on floating-point expressions are flagged;
//	             compare within a tolerance, use math.IsNaN, or
//	             document exactness at the comparison site. Integral
//	             constants (x == 0, n != -1) and the x != x NaN probe
//	             are exempt.
//	featdim      the Table I feature layout: internal/features must
//	             declare MetaDim=29 and NumPairDistances=8, and the
//	             derived sizes 29/329/629/637 may not appear as naked
//	             literals in sizing positions anywhere else — use
//	             features.MetaDim and the Extractor/Pairer dimension
//	             methods.
//	hotalloc     functions annotated //lint:hotpath — plus the seeded
//	             kernel list (nn.Kernel forward paths, nn.TrainKernel
//	             batch steps, the pair vector and its name distances,
//	             core.Scorer score paths, the batcher span loop) — must
//	             be statically allocation-free: no make/new, map/slice
//	             literals, growing append, closures, fmt,
//	             strings.Builder or interface boxing, with same-package
//	             callees checked one level deep. panic(...) arguments
//	             are exempt. Every annotated function must also be
//	             named inside a testing.AllocsPerRun closure in its
//	             package's tests (the gate cross-check, run by
//	             cmd/leapme-lint and CI) so the static and dynamic
//	             halves of the zero-alloc contract cannot drift apart.
//	locksafe     in internal/serve and internal/index, nothing may
//	             block while a sync.Mutex/RWMutex is held — channel
//	             send/receive, select (unless it has a default clause
//	             or a ctx.Done() case), time.Sleep, net/* calls,
//	             Wait() — and lock/unlock must balance on every path
//	             (no leaked locks at returns, no double acquire, no
//	             per-iteration imbalance in loops).
//	deadexport   an unexported package-level identifier or method needs
//	             a non-test use in its package; an export of an internal/
//	             package needs one in the module (checked when the run
//	             loads the root package, as make lint's ./... does). Uses
//	             from the root package, methods and fields reachable from
//	             its exported API, and interface implementations count; a
//	             use inside the identifier's own declaration does not. A
//	             package only tests import is reported at its package
//	             clause. Move an oracle only tests use into _test.go.
//	errvocab     every non-2xx response in internal/serve and
//	             cmd/leapme-serve must be written by the typed
//	             error-vocabulary helpers (fail/failCode/shed/
//	             failDeadline/enqueueFail, or probe for readiness
//	             statuses); naked http.Error and WriteHeader(4xx|5xx)
//	             break the client's code-dispatched retry contract and
//	             are reported.
//
// # Suppressing a finding
//
// A finding is suppressed by an annotation on the offending line, or on
// the line directly above it:
//
//	//lint:allow <analyzer> <reason>
//
// The reason is mandatory and should say why the invariant holds anyway
// (e.g. "sort tie-break must be an exact total order"). A missing
// reason, or a directive naming an unknown analyzer, is itself reported
// under the pseudo-analyzer "lintdirective" and fails the gate — stale
// suppressions cannot accumulate silently. Type-check errors are
// likewise surfaced as "typecheck" findings.
//
// Suppressions that stop suppressing are caught too: `make lint-audit`
// (leapme-lint -audit-allows, also a CI step) re-runs every analyzer
// with directives ignored and fails on any //lint:allow whose covered
// lines no longer produce a raw diagnostic. Delete the directive; an
// allow that guards nothing only masks the next real finding on that
// line.
//
// # Adding an analyzer
//
// 1. Create internal/analysis/<name>/<name>.go declaring a
// *lintkit.Analyzer with a Name (the //lint:allow token), a one-line
// Doc, and a Run func. Walk files with pass.Inspect/InspectStack and
// report with pass.Reportf. If the check is package-scoped, expose the
// scope as a package-level var so fixtures can retarget it.
//
// 2. Add fixtures under internal/analysis/<name>/testdata/ and a test
// calling lintest.Run. Lines that must trigger carry a trailing
// "// want `regexp`" comment; every other line must stay silent.
//
// 3. Register the analyzer in All() below, then run `make lint` on the
// whole tree and triage: fix real violations, annotate intentional ones
// with a reason, and only then merge — the gate must stay green.
//
// The framework (loader, suppressor, runner, fixture harness) lives in
// internal/analysis/lintkit. It is a deliberately small, stdlib-only
// mimic of golang.org/x/tools/go/analysis: the build is offline, so the
// x/tools module is unavailable; the analyzer surface (Pass, Reportf,
// Inspect) matches closely enough that a future migration is mechanical.
package analysis
