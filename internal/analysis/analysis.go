package analysis

import (
	"leapme/internal/analysis/ctxflow"
	"leapme/internal/analysis/deadexport"
	"leapme/internal/analysis/determinism"
	"leapme/internal/analysis/errvocab"
	"leapme/internal/analysis/featdim"
	"leapme/internal/analysis/floateq"
	"leapme/internal/analysis/guardgo"
	"leapme/internal/analysis/hotalloc"
	"leapme/internal/analysis/lintkit"
	"leapme/internal/analysis/locksafe"
)

// All returns every analyzer leapme-lint runs, in report order.
func All() []*lintkit.Analyzer {
	return []*lintkit.Analyzer{
		ctxflow.Analyzer,
		deadexport.Analyzer,
		determinism.Analyzer,
		errvocab.Analyzer,
		featdim.Analyzer,
		floateq.Analyzer,
		guardgo.Analyzer,
		hotalloc.Analyzer,
		locksafe.Analyzer,
	}
}
