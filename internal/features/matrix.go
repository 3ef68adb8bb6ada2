package features

import (
	"context"

	"leapme/internal/guard"
	"leapme/internal/parallel"
	"leapme/internal/text"
)

// Scratch is the per-worker arena of the featurisation hot path: one
// instance-feature buffer plus the token scratch threaded through
// tokenisation and phrase encoding. Obtain one with NewScratch (or let
// the Extractor pool them); a Scratch must not be shared between
// concurrent calls.
type Scratch struct {
	inst []float64
	toks text.TokenScratch
}

// NewScratch returns a scratch sized for e.
func (e *Extractor) NewScratch() *Scratch {
	return &Scratch{inst: make([]float64, e.InstanceDim())}
}

// getScratch takes a pooled scratch, allocating only when the pool is
// empty.
func (e *Extractor) getScratch() *Scratch {
	if sc, ok := e.scPool.Get().(*Scratch); ok {
		return sc
	}
	return e.NewScratch()
}

func (e *Extractor) putScratch(sc *Scratch) { e.scPool.Put(sc) }

// PropertyInput names one property to featurise: its name, its instance
// values, and an optional failure-report label (defaults to
// "featurize <name>").
type PropertyInput struct {
	Name   string
	Values []string
	Label  string
}

// Matrix is the flat-emission result of FeatureMatrix: every property
// feature vector packed row-major into one backing slab, with Props[i]
// holding the usual *Prop whose Vec is a view of row i. Row i spans
// Data[i*Dim : (i+1)*Dim].
type Matrix struct {
	Dim   int
	Data  []float64
	Props []*Prop
}

// FeatureMatrix featurises every input into a single (n × PropertyDim)
// row-major slab, fanning the per-property work across workers with
// per-unit panic isolation (a property that panics leaves a nil
// Props[i] and is recorded in the report; the rest proceed). Each row is
// bit-identical to PropertyFeatures for the same input — the slab only
// changes where the bytes live, not what they are — and each row is
// computed serially by one worker, so the result is the same for every
// worker count. Scratch arenas are pooled across properties, which is
// what removes the per-value allocations of the legacy row-per-property
// path.
func (e *Extractor) FeatureMatrix(ctx context.Context, workers int, items []PropertyInput) (*Matrix, *guard.Report, error) {
	dim := e.PropertyDim()
	m := &Matrix{
		Dim:   dim,
		Data:  make([]float64, len(items)*dim),
		Props: make([]*Prop, len(items)),
	}
	label := func(i int) string {
		if items[i].Label != "" {
			return items[i].Label
		}
		return "featurize " + items[i].Name
	}
	rep, err := parallel.ForEach(ctx, workers, len(items), label, func(i int) error {
		sc := e.getScratch()
		m.Props[i] = e.PropertyFeaturesInto(m.Data[i*dim:(i+1)*dim], items[i].Name, items[i].Values, sc)
		e.putScratch(sc)
		return nil
	})
	return m, rep, err
}
