// Package lintest runs lintkit analyzers over fixture packages, in the
// style of golang.org/x/tools/go/analysis/analysistest.
//
// A fixture is a directory of .go files forming one package. Lines that
// must trigger a diagnostic carry a trailing want comment holding a
// regular expression the diagnostic message must match:
//
//	rand.Float64() // want `global math/rand`
//
// Several expectations on one line are written as several quoted
// regexps: // want `first` `second`. Lines without a want comment must
// stay silent; a fixture with no want comments asserts the analyzer is
// completely quiet on it. //lint:allow directives are honoured, so a
// fixture can also pin the suppression behaviour.
//
//lint:allow deadexport a test harness: the analyzers' _test.go files are its only importers
package lintest

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"leapme/internal/analysis/lintkit"
)

var wantRE = regexp.MustCompile("//\\s*want\\s+(.*)$")
var wantArgRE = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// Run type-checks the fixture package in dir under the given import
// path, applies the analyzer, and compares its findings against the
// fixture's want comments. importPath matters for package-scoped
// analyzers (e.g. determinism only fires inside the deterministic
// packages), so fixtures choose the path they pretend to live at.
func Run(t *testing.T, a *lintkit.Analyzer, dir, importPath string) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("lintest: no fixture files in %s (%v)", dir, err)
	}
	sort.Strings(files)
	fset := token.NewFileSet()
	pkg, err := lintkit.CheckFiles(fset, lintkit.NewImporter(fset), importPath, files)
	if err != nil {
		t.Fatalf("lintest: parsing %s: %v", dir, err)
	}
	for _, te := range pkg.TypeErrors {
		t.Errorf("lintest: fixture %s does not type-check: %v", dir, te)
	}
	if t.Failed() {
		t.Fatalf("lintest: fix the fixture before checking expectations")
	}
	findings, err := lintkit.RunAnalyzers([]*lintkit.Package{pkg}, []*lintkit.Analyzer{a})
	if err != nil {
		t.Fatalf("lintest: running %s: %v", a.Name, err)
	}
	Expect(t, findings, files)
}

// Expect compares findings against the want comments of files: every
// finding must match a want on its line, and every want must be
// matched. Whole-program checks, which span several fixture packages,
// call it with their own findings.
func Expect(t *testing.T, findings []lintkit.Finding, files []string) {
	t.Helper()
	wants := collectWants(t, files)
	for _, f := range findings {
		key := lineKey{file: f.Position.Filename, line: f.Position.Line}
		if !wants.consume(key, f.Message) {
			t.Errorf("%s:%d: unexpected finding: %s", f.Position.Filename, f.Position.Line, f.Message)
		}
	}
	wants.reportUnmatched(t)
}

type lineKey struct {
	file string
	line int
}

type wantSet struct {
	// remaining maps a line to the regexps not yet matched by a finding.
	remaining map[lineKey][]*regexp.Regexp
}

func (w *wantSet) consume(key lineKey, msg string) bool {
	res := w.remaining[key]
	for i, re := range res {
		if re.MatchString(msg) {
			w.remaining[key] = append(res[:i:i], res[i+1:]...)
			return true
		}
	}
	return false
}

func (w *wantSet) reportUnmatched(t *testing.T) {
	t.Helper()
	var keys []lineKey
	for k, res := range w.remaining {
		if len(res) > 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		for _, re := range w.remaining[k] {
			t.Errorf("%s:%d: expected a finding matching %q, got none", k.file, k.line, re)
		}
	}
}

// collectWants scans the fixture files line by line for want comments.
func collectWants(t *testing.T, files []string) *wantSet {
	t.Helper()
	ws := &wantSet{remaining: make(map[lineKey][]*regexp.Regexp)}
	for _, fn := range files {
		lines, err := readLines(fn)
		if err != nil {
			t.Fatalf("lintest: %v", err)
		}
		for i, line := range lines {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			args := wantArgRE.FindAllStringSubmatch(m[1], -1)
			if len(args) == 0 {
				t.Fatalf("%s:%d: malformed want comment: %s", fn, i+1, line)
			}
			key := lineKey{file: fn, line: i + 1}
			for _, a := range args {
				pat := a[1]
				if !strings.HasPrefix(a[0], "`") {
					unq, err := strconv.Unquote(a[0])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %s: %v", fn, i+1, a[0], err)
					}
					pat = unq
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", fn, i+1, pat, err)
				}
				ws.remaining[key] = append(ws.remaining[key], re)
			}
		}
	}
	return ws
}

func readLines(fn string) ([]string, error) {
	data, err := os.ReadFile(fn)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", fn, err)
	}
	return strings.Split(string(data), "\n"), nil
}
