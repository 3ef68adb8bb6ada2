// Command leapme-lint is the repository's multichecker: it runs the
// domain-specific analyzers in internal/analysis over the given package
// patterns and exits non-zero when any invariant is violated.
//
//	leapme-lint ./...          # what `make lint` runs
//	leapme-lint -list          # show the analyzers and their invariants
//	leapme-lint -only determinism,guardgo ./internal/nn
//	leapme-lint -audit-allows ./...   # report stale //lint:allow directives
//
// Findings print as file:line:col: message (analyzer). A finding is
// suppressed by an inline annotation on the offending line (or the line
// above):
//
//	//lint:allow <analyzer> <reason>
//
// The reason is mandatory; malformed or unknown-analyzer annotations
// are themselves findings. See internal/analysis for the catalogue.
//
// hotalloc's run includes its AllocsPerRun gate cross-check: every
// //lint:hotpath function must be named inside a testing.AllocsPerRun
// closure in its package's tests. deadexport's module-wide half (every
// export of an internal/ package needs a non-test use) runs when the
// patterns load the root package, and reads the loaded packages as the
// whole module: lint ./... from the root, as `make lint` does.
//
// -audit-allows inverts the suppression machinery: each analyzer is
// re-run with //lint:allow directives ignored, and every directive
// whose covered lines produce no raw diagnostic is reported as stale
// (exit 1). `make lint-audit` runs this so obsolete suppressions are
// deleted instead of silently masking future findings.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"leapme/internal/analysis"
	"leapme/internal/analysis/lintkit"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("leapme-lint", flag.ExitOnError)
	list := fs.Bool("list", false, "list analyzers and exit")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	audit := fs.Bool("audit-allows", false, "re-run analyzers ignoring suppressions and report stale //lint:allow directives")
	fs.Parse(args)

	analyzers := analysis.All()
	// The full catalogue stays the vocabulary for //lint:allow validation
	// even when -only narrows the run: a directive naming a deselected
	// analyzer is a live suppression, not a typo.
	var catalogue []string
	for _, a := range analyzers {
		catalogue = append(catalogue, a.Name)
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		sel := map[string]bool{}
		for _, name := range strings.Split(*only, ",") {
			sel[strings.TrimSpace(name)] = true
		}
		var kept []*lintkit.Analyzer
		for _, a := range analyzers {
			if sel[a.Name] {
				kept = append(kept, a)
				delete(sel, a.Name)
			}
		}
		for name := range sel {
			fmt.Fprintf(stderr, "leapme-lint: unknown analyzer %q (try -list)\n", name)
			return 2
		}
		analyzers = kept
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lintkit.Load(patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "leapme-lint: %v\n", err)
		return 2
	}
	wd, _ := os.Getwd()
	if *audit {
		stale, err := lintkit.AuditDirectives(pkgs, analyzers)
		if err != nil {
			fmt.Fprintf(stderr, "leapme-lint: %v\n", err)
			return 2
		}
		for _, s := range stale {
			pos := s.Position
			pos.Filename = relPath(wd, pos.Filename)
			fmt.Fprintf(stdout, "%s: stale //lint:allow %s — suppresses nothing (reason was: %s)\n",
				pos, s.Analyzer, s.Reason)
		}
		if len(stale) > 0 {
			fmt.Fprintf(stderr, "leapme-lint: %d stale //lint:allow directive(s) — delete them\n", len(stale))
			return 1
		}
		fmt.Fprintf(stdout, "leapme-lint: every //lint:allow directive still suppresses a live finding\n")
		return 0
	}
	findings, err := lintkit.RunAnalyzers(pkgs, analyzers, catalogue...)
	if err != nil {
		fmt.Fprintf(stderr, "leapme-lint: %v\n", err)
		return 2
	}
	for _, f := range findings {
		pos := f.Position
		pos.Filename = relPath(wd, pos.Filename)
		fmt.Fprintf(stdout, "%s: %s (%s)\n", pos, f.Message, f.Analyzer)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "leapme-lint: %d finding(s) across %d package(s)\n", len(findings), len(pkgs))
		return 1
	}
	return 0
}

// relPath shortens filename relative to wd for display when it does not
// escape upward.
func relPath(wd, filename string) string {
	if wd == "" {
		return filename
	}
	if rel, err := filepath.Rel(wd, filename); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return filename
}
