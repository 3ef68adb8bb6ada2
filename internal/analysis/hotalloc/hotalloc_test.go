package hotalloc_test

import (
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"leapme/internal/analysis/hotalloc"
	"leapme/internal/analysis/lintkit"
	"leapme/internal/analysis/lintkit/lintest"
)

func TestPositiveFixtures(t *testing.T) {
	lintest.Run(t, hotalloc.Analyzer, "testdata/pos", "leapme/fix/pos")
}

func TestNegativeFixtures(t *testing.T) {
	lintest.Run(t, hotalloc.Analyzer, "testdata/neg", "leapme/fix/neg")
}

// TestSeededList retargets the seeded function list at the fixture
// package: a seeded function missing its annotation and a seeded
// function that no longer exists must both be reported.
func TestSeededList(t *testing.T) {
	saved := hotalloc.Seeded
	hotalloc.Seeded = []hotalloc.SeededFunc{
		{Pkg: "leapme/fix/seed", Recv: "Kernel", Name: "Forward"},
		{Pkg: "leapme/fix/seed", Recv: "Kernel", Name: "Gone"},
	}
	defer func() { hotalloc.Seeded = saved }()
	lintest.Run(t, hotalloc.Analyzer, "testdata/seed", "leapme/fix/seed")
}

// TestCrossCheckGates exercises the AllocsPerRun coverage check on two
// otherwise-identical fixtures: one whose _test.go gates the annotated
// function, one whose _test.go merely calls it.
func TestCrossCheckGates(t *testing.T) {
	run := func(dir string) []lintkit.Finding {
		fs, err := lintkit.RunAnalyzers([]*lintkit.Package{loadDir(t, dir, "leapme/fix/gates")},
			[]*lintkit.Analyzer{hotalloc.Analyzer})
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
	if fs := run("testdata/gates/ok"); len(fs) != 0 {
		t.Fatalf("gated fixture should pass the cross-check, got %v", fs)
	}
	fs := run("testdata/gates/missing")
	if len(fs) != 1 || !strings.Contains(fs[0].Message, "Fast") {
		t.Fatalf("ungated fixture should fail the cross-check on Fast, got %v", fs)
	}
}

func loadDir(t *testing.T, dir, importPath string) *lintkit.Package {
	t.Helper()
	fset := token.NewFileSet()
	p, err := lintkit.CheckFiles(fset, lintkit.NewImporter(fset), importPath,
		[]string{filepath.Join(dir, "fixture.go")})
	if err != nil {
		t.Fatal(err)
	}
	for _, te := range p.TypeErrors {
		t.Fatal(te)
	}
	p.Dir = dir
	return p
}
