package features

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"leapme/internal/embedding"
)

func parStore(t *testing.T) *embedding.Store {
	t.Helper()
	words := []string{"alpha", "beta", "gamma", "price", "name", "model"}
	var vecs []float64
	for i := range words {
		vecs = append(vecs, float64(i)*0.25, 1-float64(i)*0.1, 0.5, -float64(i))
	}
	s, err := embedding.NewStore(words, 4, vecs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func matrixInputs(n int) []PropertyInput {
	items := make([]PropertyInput, n)
	for i := range items {
		var values []string
		for j := 0; j < 5+i%7; j++ {
			values = append(values, fmt.Sprintf("alpha %d beta-%d GammaPrice %d.5", j, i*13+j, j*7))
		}
		items[i] = PropertyInput{Name: fmt.Sprintf("modelName%d price", i), Values: values}
	}
	return items
}

// TestFeatureMatrixMatchesPropertyFeatures pins every matrix row to the
// legacy row-per-property path bit for bit.
func TestFeatureMatrixMatchesPropertyFeatures(t *testing.T) {
	store := parStore(t)
	items := matrixInputs(23)
	ex := NewExtractor(store)
	m, rep, err := ex.FeatureMatrix(context.Background(), 0, items)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() != 0 {
		t.Fatalf("report: %v", rep)
	}
	ref := NewExtractor(store)
	for i, it := range items {
		want := ref.PropertyFeatures(it.Name, it.Values)
		got := m.Props[i]
		if got == nil || got.Name != want.Name {
			t.Fatalf("row %d: prop %+v, want name %q", i, got, want.Name)
		}
		if &got.Vec[0] != &m.Data[i*m.Dim] {
			t.Fatalf("row %d: Vec is not a view into the slab", i)
		}
		for j := range want.Vec {
			if math.Float64bits(got.Vec[j]) != math.Float64bits(want.Vec[j]) {
				t.Fatalf("row %d dim %d: %x, want %x (bit mismatch)", i, j,
					math.Float64bits(got.Vec[j]), math.Float64bits(want.Vec[j]))
			}
		}
		// The name profile must survive the Into path identically.
		if !reflect.DeepEqual(got.prof, want.prof) {
			t.Fatalf("row %d: name profile %+v, want %+v", i, got.prof, want.prof)
		}
	}
}

// TestFeatureMatrixDeterminismAcrossWorkerCounts: the slab emission must
// be worker-count independent, like every parallel path in this package.
func TestFeatureMatrixDeterminismAcrossWorkerCounts(t *testing.T) {
	store := parStore(t)
	items := matrixInputs(31)
	ref, _, err := NewExtractor(store).FeatureMatrix(context.Background(), 1, items)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 8, -1} {
		got, _, err := NewExtractor(store).FeatureMatrix(context.Background(), w, items)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(ref.Data[i]) {
				t.Fatalf("workers=%d: Data[%d] = %x, want %x (bit mismatch)",
					w, i, math.Float64bits(got.Data[i]), math.Float64bits(ref.Data[i]))
			}
		}
	}
}

// TestFeatureMatrixAllocs is the dynamic half of the hotalloc gate on
// accumulateInstances: the warm per-value featurisation loop must not
// allocate.
func TestFeatureMatrixAllocs(t *testing.T) {
	store := parStore(t)
	ex := NewExtractor(store)
	values := []string{"alpha 12 beta", "GammaPrice 3.5", "model-name ALPHA", "beta beta 99"}
	sc := ex.NewScratch()
	dst := make([]float64, ex.InstanceDim())
	ex.accumulateInstances(dst, values, sc)
	allocs := testing.AllocsPerRun(100, func() {
		ex.accumulateInstances(dst, values, sc)
	})
	if allocs != 0 {
		t.Fatalf("warm accumulateInstances allocated %.1f times per run, want 0", allocs)
	}
}
