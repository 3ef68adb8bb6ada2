package deadexport_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"leapme/internal/analysis/deadexport"
	"leapme/internal/analysis/lintkit"
	"leapme/internal/analysis/lintkit/lintest"
)

// TestModuleFixture runs both halves over a fixture module whose root
// package is testdata/src: exports used only by tests, unused
// unexported identifiers and a test-only package are reported; exports
// used by another package, reached through the root package's alias or
// signatures, or reached through an interface method are not.
func TestModuleFixture(t *testing.T) {
	saved := deadexport.Module
	deadexport.Module = "leapme/internal/analysis/deadexport/testdata/src"
	defer func() { deadexport.Module = saved }()

	var dirs, files []string
	err := filepath.WalkDir("testdata/src", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			dirs = append(dirs, "./"+path)
		} else if strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var pkgDirs []string
	for _, d := range dirs {
		if m, _ := filepath.Glob(filepath.Join(d, "*.go")); len(m) > 0 {
			pkgDirs = append(pkgDirs, d)
		}
	}
	pkgs, err := lintkit.Load(pkgDirs...)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 5 {
		t.Fatalf("loaded %d fixture packages, want 5", len(pkgs))
	}
	findings, err := lintkit.RunAnalyzers(pkgs, []*lintkit.Analyzer{deadexport.Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	for i := range files {
		files[i], _ = filepath.Abs(files[i])
	}
	lintest.Expect(t, findings, files)
}
