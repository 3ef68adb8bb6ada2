package main

import (
	"strings"
	"testing"

	"leapme/internal/analysis/errvocab"
	"leapme/internal/analysis/locksafe"
)

// TestRepoIsClean is the smoke test the issue asks for: the multichecker
// over the whole module must exit 0 with no findings. Every invariant
// violation in the tree is either fixed or carries a reasoned
// //lint:allow annotation.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source; skipped in -short")
	}
	var stdout, stderr strings.Builder
	code := run([]string{"leapme/..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("leapme-lint leapme/... exited %d, want 0\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("expected no findings, got:\n%s", stdout.String())
	}
}

// TestSeededViolationFails drives the full binary path (go list → load →
// analyze → exit code) over a fixture package that contains known
// violations: the gate must exit 1 and name the analyzer.
func TestSeededViolationFails(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"../../internal/analysis/guardgo/testdata/pos"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 on seeded violations\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "(guardgo)") {
		t.Errorf("findings should be attributed to guardgo, got:\n%s", stdout.String())
	}
}

func TestListNamesAllAnalyzers(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	for _, name := range []string{"ctxflow", "deadexport", "determinism", "errvocab", "featdim", "floateq", "guardgo", "hotalloc", "locksafe"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output missing %s:\n%s", name, stdout.String())
		}
	}
}

// TestContractAnalyzersClean is the issue's smoke test for the three
// contract analyzers on their own: the whole tree must pass hotalloc
// (including the AllocsPerRun gate cross-check), locksafe and errvocab.
func TestContractAnalyzersClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source; skipped in -short")
	}
	var stdout, stderr strings.Builder
	code := run([]string{"-only", "hotalloc,locksafe,errvocab", "leapme/..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("-only hotalloc,locksafe,errvocab leapme/... exited %d, want 0\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("expected no findings, got:\n%s", stdout.String())
	}
}

// TestSeededHotallocViolationFails proves the hotalloc gate fires
// through the full binary path: the positive fixture package is
// annotation-driven, so it violates at any import path, and it has no
// test file, so the AllocsPerRun cross-check fires too.
func TestSeededHotallocViolationFails(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-only", "hotalloc", "../../internal/analysis/hotalloc/testdata/pos"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 on seeded hotalloc violations\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "(hotalloc)") {
		t.Errorf("findings should be attributed to hotalloc, got:\n%s", stdout.String())
	}
	if !strings.Contains(stdout.String(), "AllocsPerRun") {
		t.Errorf("gate cross-check should fire on the gateless fixture, got:\n%s", stdout.String())
	}
}

// TestSeededLocksafeViolationFails retargets locksafe's scope onto its
// own positive fixture package (scoped analyzers are silent outside
// their packages) and proves the binary exits 1 on the seeded
// held-lock violations.
func TestSeededLocksafeViolationFails(t *testing.T) {
	const fixturePath = "leapme/internal/analysis/locksafe/testdata/pos"
	locksafe.ScopePackages[fixturePath] = true
	defer delete(locksafe.ScopePackages, fixturePath)
	var stdout, stderr strings.Builder
	code := run([]string{"-only", "locksafe", "../../internal/analysis/locksafe/testdata/pos"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 on seeded locksafe violations\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "(locksafe)") {
		t.Errorf("findings should be attributed to locksafe, got:\n%s", stdout.String())
	}
}

// TestSeededErrvocabViolationFails does the same for errvocab: naked
// http.Error and WriteHeader(5xx) in a scoped package must fail the
// gate.
func TestSeededErrvocabViolationFails(t *testing.T) {
	const fixturePath = "leapme/internal/analysis/errvocab/testdata/pos"
	errvocab.ScopePackages[fixturePath] = true
	defer delete(errvocab.ScopePackages, fixturePath)
	var stdout, stderr strings.Builder
	code := run([]string{"-only", "errvocab", "../../internal/analysis/errvocab/testdata/pos"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 on seeded errvocab violations\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "(errvocab)") {
		t.Errorf("findings should be attributed to errvocab, got:\n%s", stdout.String())
	}
}

// TestOnlyAcceptsForeignAllows pins the -only/-catalogue interaction: a
// //lint:allow naming an analyzer outside the -only selection is a live
// suppression for the full run, not an "unknown analyzer" finding. The
// guardgo fixture carries guardgo allows; running only floateq over it
// must not flag them.
func TestOnlyAcceptsForeignAllows(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-only", "floateq", "../../internal/analysis/guardgo/testdata/neg"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if strings.Contains(stdout.String(), "unknown analyzer") {
		t.Errorf("allows for deselected analyzers flagged as unknown:\n%s", stdout.String())
	}
}

// TestOverlappingPatternsDeduped pins the duplicate-package fix: naming
// the same package twice (overlapping patterns do this through go list)
// must not repeat its findings or its directive diagnostics.
func TestOverlappingPatternsDeduped(t *testing.T) {
	dir := "../../internal/analysis/guardgo/testdata/pos"
	var once, twice strings.Builder
	var stderr strings.Builder
	if code := run([]string{dir}, &once, &stderr); code != 1 {
		t.Fatalf("single pattern exit = %d, want 1\n%s", code, stderr.String())
	}
	if code := run([]string{dir, dir}, &twice, &stderr); code != 1 {
		t.Fatalf("overlapping patterns exit = %d, want 1\n%s", code, stderr.String())
	}
	if once.String() != twice.String() {
		t.Errorf("overlapping patterns change the report:\nonce:\n%s\ntwice:\n%s", once.String(), twice.String())
	}
}

// TestAuditAllowsFlagsStale drives -audit-allows over the audit fixture:
// the stale directive must be reported (exit 1) and the live one must
// not.
func TestAuditAllowsFlagsStale(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-audit-allows", "../../internal/analysis/lintkit/testdata/audit"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 on the stale directive\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "stale //lint:allow floateq") {
		t.Errorf("stale directive not reported:\n%s", out)
	}
	if got := strings.Count(out, "stale //lint:allow"); got != 1 {
		t.Errorf("want exactly 1 stale directive (the live one must survive), got %d:\n%s", got, out)
	}
}

func TestUnknownAnalyzerRejected(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-only", "nosuch"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-only nosuch exited %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown analyzer") {
		t.Errorf("stderr should explain the unknown analyzer, got: %s", stderr.String())
	}
}
