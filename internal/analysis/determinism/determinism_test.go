package determinism_test

import (
	"testing"

	"leapme/internal/analysis/determinism"
	"leapme/internal/analysis/lintkit/lintest"
)

func TestPositiveFixtures(t *testing.T) {
	// Analyzed as if it were one of the deterministic packages.
	lintest.Run(t, determinism.Analyzer, "testdata/pos", "leapme/internal/nn")
}

func TestNegativeFixtures(t *testing.T) {
	// Identical constructs outside the deterministic set stay silent.
	lintest.Run(t, determinism.Analyzer, "testdata/neg", "leapme/internal/serve")
}

func TestPositiveFixturesSilentOutsideScope(t *testing.T) {
	// The pos fixtures carry want comments, so running them out of
	// scope must fail if anything is reported — but nothing should be,
	// and the unmatched wants would fail too. Use a throwaway subtest
	// to assert the analyzer's package gate directly instead.
	if got := len(determinism.Packages); got != 16 {
		t.Fatalf("deterministic package set has %d entries, want 16 (nn, features, eval, core, parallel, chaos, index, blocking, embedding, baselines, ml, graph, dataset, domain, text, mathx)", got)
	}
}
