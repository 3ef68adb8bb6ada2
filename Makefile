GO ?= go

PACKAGES := ./...
# Packages with new parallel paths; test-determinism re-runs their
# determinism suites under different scheduler conditions.
DETERMINISM_PACKAGES := ./internal/nn ./internal/features ./internal/core ./internal/eval ./internal/index ./internal/blocking ./internal/embedding ./internal/graph

# External analyzers run by lint-ext. Pinned here (not in go.mod: the
# repo builds offline, and `go run pkg@version` resolves these only on
# machines/CI with network access). Bump deliberately.
STATICCHECK_VERSION := 2025.1
GOVULNCHECK_VERSION := v1.1.4

.PHONY: all build test vet lint lint-audit lint-ext test-race test-determinism test-chaos fuzz bench-json clean

all: build vet lint test

build:
	$(GO) build $(PACKAGES)

test:
	$(GO) test $(PACKAGES)

vet:
	$(GO) vet $(PACKAGES)

# The repository's own invariants, machine-enforced: determinism,
# guard isolation, ctx cancellation, float comparison, feature layout,
# hot-path allocation freedom, lock discipline, error vocabulary.
# See internal/analysis/doc.go for the catalogue and the
# //lint:allow <analyzer> <reason> suppression syntax.
lint:
	$(GO) run ./cmd/leapme-lint $(PACKAGES)

# Suppression hygiene: re-run the analyzers with //lint:allow ignored
# and fail on directives that no longer suppress anything, so stale
# allows get deleted instead of silently masking future findings.
lint-audit:
	$(GO) run ./cmd/leapme-lint -audit-allows $(PACKAGES)

# General-purpose external analyzers; needs network to fetch the pinned
# tools, so it is a separate CI job rather than part of `make all`.
lint-ext:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) $(PACKAGES)
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) $(PACKAGES)

test-race:
	$(GO) test -race $(PACKAGES)

# The determinism suites compare Workers=1 against Workers=N inside each
# test; running them at two GOMAXPROCS settings additionally varies how
# the scheduler interleaves the workers. Results must be bit-identical
# in every configuration.
test-determinism:
	GOMAXPROCS=1 $(GO) test -count=1 -run 'Determinism' $(DETERMINISM_PACKAGES)
	GOMAXPROCS=4 $(GO) test -count=1 -run 'Determinism' $(DETERMINISM_PACKAGES)

# The overload/fault-injection suite: the chaos package in full, plus
# the serve-layer chaos and reload-failure tests, all under -race —
# injected panics, stalls and corrupt reloads must never surface as
# data races or dropped requests. The batcher tests run 20 times over:
# the dispatcher's handoff is a select between handing a batch to an
# idle worker and taking the next span, and repetition varies which of
# the two wins.
test-chaos:
	$(GO) test -race -count=1 ./internal/chaos
	$(GO) test -race -count=1 -run 'Chaos|ReloadFailure|Admission|DeadlineHeader' ./internal/serve
	$(GO) test -race -count=20 -run 'Batcher|LoneRequest' ./internal/serve

# Short fuzz pass over the dataset JSON loaders, the serving JSON API, the
# pair distances (against their string oracle), the nn AVX routines
# (against their generic Go references), the model and index snapshot
# loaders (mutated payloads re-sealed past their CRC) and the embedding
# store loader; extend -fuzztime for real runs. CI runs this
# target, so a fuzzer added here runs there too. The binary
# loader targets skip minimisation: their inputs are kilobytes long,
# and minimising each new-coverage input would spend most of a 10 s
# budget (and can outlast it, losing a failure the run found).
fuzz:
	$(GO) test ./internal/dataset -run='^$$' -fuzz='^FuzzReadJSON$$' -fuzztime=10s
	$(GO) test ./internal/dataset -run='^$$' -fuzz='^FuzzReadJSONQuarantine$$' -fuzztime=10s
	$(GO) test ./internal/serve -run='^$$' -fuzz='^FuzzMatchRequest$$' -fuzztime=10s
	$(GO) test ./internal/serve -run='^$$' -fuzz='^FuzzMatchAllRequest$$' -fuzztime=10s
	$(GO) test ./internal/text -run='^$$' -fuzz='^FuzzNameDistances$$' -fuzztime=10s
	$(GO) test ./internal/nn -run='^$$' -fuzz='^FuzzSIMDKernels$$' -fuzztime=10s
	$(GO) test ./internal/core -run='^$$' -fuzz='^FuzzReadModel$$' -fuzztime=10s -fuzzminimizetime=0
	$(GO) test ./internal/index -run='^$$' -fuzz='^FuzzReadSnapshot$$' -fuzztime=10s -fuzzminimizetime=0
	$(GO) test ./internal/embedding -run='^$$' -fuzz='^FuzzReadStore$$' -fuzztime=10s -fuzzminimizetime=0

# Machine-readable performance baselines for the serving, training,
# parallel and blocking pipelines (committed as BENCH_*.json).
bench-json:
	$(GO) run ./cmd/benchtab -bench serve -out BENCH_serve.json
	$(GO) run ./cmd/benchtab -bench train -out BENCH_train.json
	$(GO) run ./cmd/benchtab -bench parallel -out BENCH_parallel.json
	$(GO) run ./cmd/benchtab -bench blocking -out BENCH_blocking.json

clean:
	$(GO) clean -testcache
