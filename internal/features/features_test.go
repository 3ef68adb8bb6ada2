package features

import (
	"math"
	"testing"
	"testing/quick"

	"leapme/internal/embedding"
	"leapme/internal/text"
)

func testStore(t testing.TB) *embedding.Store {
	t.Helper()
	words := []string{"camera", "resolution", "megapixels", "mp", "weight", "grams", "24", "500"}
	vecs := []float64{
		1, 0, 0, 0,
		0.9, 0.1, 0, 0,
		0.8, 0.2, 0, 0,
		0.85, 0.15, 0, 0,
		0, 0, 1, 0,
		0, 0, 0.9, 0.1,
		0, 1, 0, 0,
		0, 0, 0, 1,
	}
	s, err := embedding.NewStore(words, 4, vecs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// instanceFeatures returns the feature vector of one property value.
func instanceFeatures(e *Extractor, value string) []float64 {
	out := make([]float64, e.InstanceDim())
	var ts text.TokenScratch
	e.instanceFeaturesInto(out, value, &ts)
	return out
}

func BenchmarkInstanceFeatures(b *testing.B) {
	e := NewExtractor(testStore(b))
	for i := 0; i < b.N; i++ {
		instanceFeatures(e, "Nikon D850 45.7 MP full-frame CMOS")
	}
}

func TestDims(t *testing.T) {
	e := NewExtractor(testStore(t))
	if e.EmbeddingDim() != 4 {
		t.Errorf("EmbeddingDim = %d", e.EmbeddingDim())
	}
	if e.InstanceDim() != MetaDim+4 {
		t.Errorf("InstanceDim = %d", e.InstanceDim())
	}
	if e.PropertyDim() != MetaDim+8 {
		t.Errorf("PropertyDim = %d", e.PropertyDim())
	}
	if MetaDim != 29 {
		t.Errorf("MetaDim = %d, want 29 (paper: 329 − 300)", MetaDim)
	}
}

func TestInstanceFeaturesCharBlock(t *testing.T) {
	e := NewExtractor(testStore(t))
	f := instanceFeatures(e, "Ab 1.")
	// 5 runes: 1 upper, 1 lower, 2 letters total, 1 number, 1 punct, 1 sep.
	wantFrac := map[int]float64{
		0: 0.2, // upper fraction
		2: 0.2, // lower fraction
		4: 0.4, // letters-both fraction
	}
	wantCount := map[int]float64{
		1: 1, // upper count
		3: 1, // lower count
		5: 2, // letters-both count
	}
	for i, w := range wantFrac {
		if math.Abs(f[i]-w) > 1e-12 {
			t.Errorf("feature %d = %v, want %v", i, f[i], w)
		}
	}
	for i, w := range wantCount {
		if f[i] != w {
			t.Errorf("feature %d = %v, want %v", i, f[i], w)
		}
	}
}

func TestInstanceFeaturesNumericValue(t *testing.T) {
	e := NewExtractor(testStore(t))
	numIdx := 18 + 10 // after char and token blocks
	if f := instanceFeatures(e, "42.5"); f[numIdx] != 42.5 {
		t.Errorf("numeric value = %v, want 42.5", f[numIdx])
	}
	if f := instanceFeatures(e, "24 MP"); f[numIdx] != -1 {
		t.Errorf("non-numeric value = %v, want -1", f[numIdx])
	}
}

func TestNumericValue(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{"42", 42},
		{"42.5", 42.5},
		{"-3.25", -3.25},
		{"+7", 7},
		{"1,920", 1920},
		{" 15 ", 15},
		{"", -1},
		{"abc", -1},
		{"24 MP", -1},
		{"4.2.1", -1},
		{"-", -1},
		{"$5", -1},
	}
	for _, c := range cases {
		if got := NumericValue(c.in); got != c.want {
			t.Errorf("NumericValue(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestInstanceFeaturesEmbeddingBlock(t *testing.T) {
	e := NewExtractor(testStore(t))
	f := instanceFeatures(e, "camera 24")
	embBlock := f[MetaDim:]
	// average of camera {1,0,0,0} and 24 {0,1,0,0} = {0.5, 0.5, 0, 0}
	want := []float64{0.5, 0.5, 0, 0}
	for i := range want {
		if math.Abs(embBlock[i]-want[i]) > 1e-12 {
			t.Errorf("embedding block = %v, want %v", embBlock, want)
			break
		}
	}
}

func TestInstanceFeaturesEmptyValue(t *testing.T) {
	e := NewExtractor(testStore(t))
	f := instanceFeatures(e, "")
	for i, v := range f {
		if i == 28 { // numeric value slot: -1 for non-number
			if v != -1 {
				t.Errorf("numeric slot = %v", v)
			}
			continue
		}
		if v != 0 {
			t.Errorf("feature %d = %v for empty value", i, v)
		}
	}
}

func TestPropertyFeaturesAggregation(t *testing.T) {
	e := NewExtractor(testStore(t))
	p := e.PropertyFeatures("resolution", []string{"24", "500"})
	instEmb := p.Vec[MetaDim : MetaDim+4]
	// avg of 24 {0,1,0,0} and 500 {0,0,0,1} → {0, .5, 0, .5}
	want := []float64{0, 0.5, 0, 0.5}
	for i := range want {
		if math.Abs(instEmb[i]-want[i]) > 1e-12 {
			t.Errorf("instance emb avg = %v, want %v", instEmb, want)
			break
		}
	}
	nameEmb := p.Vec[MetaDim+4:]
	if math.Abs(nameEmb[0]-0.9) > 1e-12 || math.Abs(nameEmb[1]-0.1) > 1e-12 {
		t.Errorf("name emb = %v", nameEmb)
	}
	// Numeric-value average of two numbers.
	if p.Vec[28] != 262 {
		t.Errorf("avg numeric value = %v, want 262", p.Vec[28])
	}
}

func TestPropertyFeaturesNoValues(t *testing.T) {
	e := NewExtractor(testStore(t))
	p := e.PropertyFeatures("weight", nil)
	for i := 0; i < e.InstanceDim(); i++ {
		if p.Vec[i] != 0 {
			t.Errorf("instance block should be zero with no values, idx %d = %v", i, p.Vec[i])
		}
	}
	if p.Vec[MetaDim+4] != 0 { // name emb of "weight" = {0,0,1,0}
		t.Errorf("name emb wrong: %v", p.Vec[MetaDim+4:])
	}
	if p.Vec[MetaDim+4+2] != 1 {
		t.Errorf("name emb wrong: %v", p.Vec[MetaDim+4:])
	}
}

func TestMaxValuesCap(t *testing.T) {
	e := NewExtractor(testStore(t))
	e.MaxValues = 1
	p := e.PropertyFeatures("x", []string{"24", "500"})
	// Only "24" aggregated → numeric slot = 24.
	if p.Vec[28] != 24 {
		t.Errorf("capped aggregation numeric = %v, want 24", p.Vec[28])
	}
}

func TestPairDistancesIdenticalNames(t *testing.T) {
	e := NewExtractor(testStore(t))
	a := e.PropertyFeatures("Camera Resolution", []string{"24"})
	b := e.PropertyFeatures("camera_resolution", []string{"500"})
	dst := make([]float64, NumPairDistances)
	var es text.EditScratch
	text.NameDistances(dst, &a.prof, &b.prof, &es)
	// Names normalise identically → all distances 0.
	for i, d := range dst {
		if math.Abs(d) > 1e-12 {
			t.Errorf("distance %d = %v for identical normalised names", i, d)
		}
	}
}

func TestPairDistancesBounds(t *testing.T) {
	e := NewExtractor(testStore(t))
	var es text.EditScratch
	f := func(na, nb string) bool {
		if len(na) > 30 {
			na = na[:30]
		}
		if len(nb) > 30 {
			nb = nb[:30]
		}
		a := e.PropertyFeatures(na, nil)
		b := e.PropertyFeatures(nb, nil)
		dst := make([]float64, NumPairDistances)
		text.NameDistances(dst, &a.prof, &b.prof, &es)
		for _, d := range dst {
			if d < -1e-12 || d > 1+1e-12 || math.IsNaN(d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
