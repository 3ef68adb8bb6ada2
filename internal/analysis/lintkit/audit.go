package lintkit

// The suppression audit answers the question RunAnalyzers cannot: which
// //lint:allow directives still earn their keep? A directive goes stale
// when the code it excused is refactored away — the comment lingers,
// documenting a violation that no longer exists and silently masking
// any future violation that lands on the same line. AuditDirectives
// re-runs every analyzer with suppression disabled and reports each
// well-formed directive whose (analyzer, file, covered-lines) window
// contains no raw diagnostic.

import (
	"fmt"
	"go/token"
	"sort"
)

// StaleDirective is one //lint:allow that suppresses nothing.
type StaleDirective struct {
	Position token.Position
	Analyzer string
	Reason   string
}

func (s StaleDirective) String() string {
	return fmt.Sprintf("%s: stale //lint:allow %s — no %s finding on this or the next line (reason was: %s)",
		s.Position, s.Analyzer, s.Analyzer, s.Reason)
}

// AuditDirectives runs the analyzers over pkgs ignoring suppression and
// returns the directives that no raw diagnostic lands on.
//
// Malformed directives and ones naming unknown analyzers are skipped
// here — RunAnalyzers already reports those as findings in their own
// right.
func AuditDirectives(pkgs []*Package, analyzers []*Analyzer) ([]StaleDirective, error) {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}

	// live maps file -> line -> analyzer names with a raw diagnostic there.
	live := make(map[string]map[int]map[string]bool)
	mark := func(analyzer, file string, line int) {
		lines := live[file]
		if lines == nil {
			lines = make(map[int]map[string]bool)
			live[file] = lines
		}
		if lines[line] == nil {
			lines[line] = make(map[string]bool)
		}
		lines[line][analyzer] = true
	}

	var stale []StaleDirective
	for _, a := range analyzers {
		passes, err := runPasses(a, pkgs)
		if err != nil {
			return nil, fmt.Errorf("lintkit: audit: %w", err)
		}
		for _, pass := range passes {
			for _, d := range pass.diags {
				pos := pass.Fset.Position(d.Pos)
				mark(a.Name, pos.Filename, pos.Line)
			}
		}
	}

	seen := make(map[string]bool)
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range ParseDirectives(p.Fset, f) {
				if d.Malformed != "" || !known[d.Analyzer] {
					continue
				}
				pos := p.Fset.Position(d.Pos)
				dk := fmt.Sprintf("%s:%d:%d:%s", pos.Filename, pos.Line, pos.Column, d.Analyzer)
				if seen[dk] {
					continue // duplicate package walk
				}
				seen[dk] = true
				// Mirror the suppressor's coverage window exactly: the
				// directive's own line and the line below.
				if live[pos.Filename][pos.Line][d.Analyzer] || live[pos.Filename][pos.Line+1][d.Analyzer] {
					continue
				}
				stale = append(stale, StaleDirective{Position: pos, Analyzer: d.Analyzer, Reason: d.Reason})
			}
		}
	}
	sort.Slice(stale, func(i, j int) bool {
		a, b := stale[i], stale[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		return a.Position.Line < b.Position.Line
	})
	return stale, nil
}
