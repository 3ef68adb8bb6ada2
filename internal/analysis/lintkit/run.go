package lintkit

import (
	"errors"
	"fmt"
	"go/token"
	"go/types"
	"sort"
)

// Finding is one surviving (non-suppressed) diagnostic, positioned and
// attributed to its analyzer.
type Finding struct {
	Analyzer string
	Position token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Position, f.Message, f.Analyzer)
}

// DirectiveCheckName is the pseudo-analyzer name under which malformed
// or unknown //lint:allow directives are reported. It cannot itself be
// suppressed.
const DirectiveCheckName = "lintdirective"

// RunAnalyzers applies every analyzer to every package, filters
// diagnostics through //lint:allow directives, validates the directives
// themselves, and returns the surviving findings sorted by position.
//
// extraKnown names analyzers that exist in the catalogue but are not
// part of this run (a -only selection): directives naming them are
// legitimate suppressions for the full run, not "unknown analyzer"
// mistakes, so they pass directive validation here.
//
// Type-check errors in an analysed package are returned as findings too
// (under pseudo-analyzer "typecheck"): a tree that does not compile must
// fail the lint gate, not sneak past it.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer, extraKnown ...string) ([]Finding, error) {
	known := make(map[string]bool, len(analyzers)+len(extraKnown))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	for _, name := range extraKnown {
		known[name] = true
	}
	var findings []Finding
	sups := make([]*suppressor, len(pkgs))
	for i, p := range pkgs {
		sup, directives := newSuppressor(p.Fset, p.Files)
		sups[i] = sup
		for _, d := range directives {
			switch {
			case d.Malformed != "":
				findings = append(findings, Finding{
					Analyzer: DirectiveCheckName,
					Position: p.Fset.Position(d.Pos),
					Message:  "malformed //lint:allow: " + d.Malformed,
				})
			case !known[d.Analyzer]:
				findings = append(findings, Finding{
					Analyzer: DirectiveCheckName,
					Position: p.Fset.Position(d.Pos),
					Message:  fmt.Sprintf("//lint:allow names unknown analyzer %q", d.Analyzer),
				})
			}
		}
		for _, te := range p.TypeErrors {
			f := Finding{Analyzer: "typecheck", Message: te.Error()}
			// A checker error carries its own position; report it there,
			// so it prints relative and sorts with its file.
			var terr types.Error
			if errors.As(te, &terr) {
				f.Position = terr.Fset.Position(terr.Pos)
				f.Message = terr.Msg
			}
			findings = append(findings, f)
		}
	}
	for _, a := range analyzers {
		passes, err := runPasses(a, pkgs)
		if err != nil {
			return nil, err
		}
		for i, pass := range passes {
			for _, d := range pass.diags {
				if sups[i].allows(a.Name, d.Pos) {
					continue
				}
				findings = append(findings, Finding{
					Analyzer: a.Name,
					Position: pass.Fset.Position(d.Pos),
					Message:  d.Message,
				})
			}
		}
	}
	findings = DedupeFindings(findings)
	SortFindings(findings)
	return findings, nil
}

// SortFindings orders findings by file, line, column, then analyzer —
// the stable presentation order the multichecker prints.
func SortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// DedupeFindings drops findings identical in (analyzer, position,
// message), preserving first-seen order. Duplicate packages — whether
// from overlapping go list patterns or callers passing the same
// *Package twice — would otherwise repeat every report, most visibly
// the malformed-directive finding which is emitted per package walk.
func DedupeFindings(findings []Finding) []Finding {
	type key struct {
		analyzer, file, message string
		line, col               int
	}
	seen := make(map[key]bool, len(findings))
	out := findings[:0]
	for _, f := range findings {
		k := key{f.Analyzer, f.Position.Filename, f.Message, f.Position.Line, f.Position.Column}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, f)
	}
	return out
}
