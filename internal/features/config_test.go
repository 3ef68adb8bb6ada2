package features

import (
	"testing"

	"leapme/internal/text"
)

// pairVector allocates and fills the pair vector of (a, b).
func pairVector(p *Pairer, a, b *Prop) []float64 {
	dst := make([]float64, p.Dim())
	var es text.EditScratch
	p.PairVectorScratch(dst, a, b, &es)
	return dst
}

func TestAllConfigsCount(t *testing.T) {
	cfgs := AllConfigs()
	if len(cfgs) != 9 {
		t.Fatalf("AllConfigs = %d, want 9", len(cfgs))
	}
	seen := map[string]bool{}
	for _, c := range cfgs {
		if !c.Valid() {
			t.Errorf("config %v invalid", c)
		}
		if seen[c.String()] {
			t.Errorf("duplicate config %v", c)
		}
		seen[c.String()] = true
	}
}

func TestConfigString(t *testing.T) {
	if s := FullConfig().String(); s != "both/all" {
		t.Errorf("FullConfig.String = %q", s)
	}
	c := Config{Instances: true, Embeddings: true}
	if s := c.String(); s != "instances/emb" {
		t.Errorf("String = %q", s)
	}
	c = Config{Names: true, NonEmbeddings: true}
	if s := c.String(); s != "names/-emb" {
		t.Errorf("String = %q", s)
	}
}

func TestConfigDerivations(t *testing.T) {
	full := FullConfig()
	emb := full.EmbOnly()
	if !emb.Embeddings || emb.NonEmbeddings {
		t.Errorf("EmbOnly = %+v", emb)
	}
	non := full.NonEmbOnly()
	if non.Embeddings || !non.NonEmbeddings {
		t.Errorf("NonEmbOnly = %+v", non)
	}
}

func TestConfigValid(t *testing.T) {
	if (Config{}).Valid() {
		t.Error("zero config should be invalid")
	}
	if (Config{Instances: true}).Valid() {
		t.Error("config with no kind should be invalid")
	}
	if (Config{Embeddings: true}).Valid() {
		t.Error("config with no level should be invalid")
	}
}

func TestParseConfig(t *testing.T) {
	// Round trip: every canonical config parses back from its String.
	for _, c := range AllConfigs() {
		s := c.String()
		got, err := ParseConfig(s)
		if err != nil {
			t.Fatalf("ParseConfig(%q): %v", s, err)
		}
		if got != c {
			t.Errorf("ParseConfig(%q) = %+v, want %+v", s, got, c)
		}
	}
	for _, bad := range []string{"", "both", "both/", "/all", "x/all", "both/x", "both/all/extra"} {
		if _, err := ParseConfig(bad); err == nil {
			t.Errorf("ParseConfig(%q) accepted", bad)
		}
	}
}

func TestPairerDims(t *testing.T) {
	e := NewExtractor(testStore(t)) // D = 4
	cases := []struct {
		cfg  Config
		want int
	}{
		{FullConfig(), MetaDim + 2*4 + NumPairDistances},                         // 29+8+8 = 45
		{Config{Instances: true, Embeddings: true}, 4},                           // instance emb diff
		{Config{Instances: true, NonEmbeddings: true}, MetaDim},                  // meta diff
		{Config{Names: true, Embeddings: true}, 4},                               // name emb diff
		{Config{Names: true, NonEmbeddings: true}, NumPairDistances},             // distances only
		{Config{Names: true, Embeddings: true, NonEmbeddings: true}, 4 + 8},      // name emb + distances
		{Config{Instances: true, Names: true, Embeddings: true}, 8},              // both emb blocks
		{Config{Instances: true, Names: true, NonEmbeddings: true}, MetaDim + 8}, // meta + distances
	}
	for _, c := range cases {
		p, err := NewPairer(e, c.cfg)
		if err != nil {
			t.Fatalf("%v: %v", c.cfg, err)
		}
		if p.Dim() != c.want {
			t.Errorf("config %v: dim = %d, want %d", c.cfg, p.Dim(), c.want)
		}
	}
}

func TestPairerRejectsInvalid(t *testing.T) {
	e := NewExtractor(testStore(t))
	if _, err := NewPairer(e, Config{}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestPairVectorSymmetry(t *testing.T) {
	e := NewExtractor(testStore(t))
	p, err := NewPairer(e, FullConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := e.PropertyFeatures("camera resolution", []string{"24 megapixels"})
	b := e.PropertyFeatures("weight", []string{"500 grams"})
	ab := pairVector(p, a, b)
	ba := pairVector(p, b, a)
	for i := range ab {
		if ab[i] != ba[i] {
			t.Fatalf("pair vector not symmetric at %d: %v vs %v", i, ab[i], ba[i])
		}
	}
}

func TestPairVectorSelfIsZero(t *testing.T) {
	e := NewExtractor(testStore(t))
	p, _ := NewPairer(e, FullConfig())
	a := e.PropertyFeatures("resolution", []string{"24"})
	v := pairVector(p, a, a)
	for i, x := range v {
		if x != 0 {
			t.Fatalf("self pair vector nonzero at %d: %v", i, x)
		}
	}
}

func TestPairVectorDiscriminates(t *testing.T) {
	// A matching-ish pair (synonym names, similar values) should produce a
	// smaller feature mass than a non-matching pair.
	e := NewExtractor(testStore(t))
	p, _ := NewPairer(e, FullConfig())
	res1 := e.PropertyFeatures("resolution", []string{"24"})
	res2 := e.PropertyFeatures("megapixels", []string{"24"})
	wgt := e.PropertyFeatures("weight", []string{"500"})
	near := pairVector(p, res1, res2)
	far := pairVector(p, res1, wgt)
	var nearSum, farSum float64
	for i := range near {
		nearSum += near[i]
		farSum += far[i]
	}
	if nearSum >= farSum {
		t.Errorf("matching pair mass %v >= non-matching %v", nearSum, farSum)
	}
}

// TestPairVectorScratchZeroAllocs is the dynamic half of
// PairVectorScratch's //lint:hotpath contract: a warm call allocates
// nothing, for ASCII names (the word-size path) and non-ASCII names
// (the rune DPs) alike.
func TestPairVectorScratchZeroAllocs(t *testing.T) {
	e := NewExtractor(testStore(t))
	p, err := NewPairer(e, FullConfig())
	if err != nil {
		t.Fatal(err)
	}
	pairs := [][2]*Prop{
		{e.PropertyFeatures("camera resolution", []string{"24 megapixels"}), e.PropertyFeatures("weight", []string{"500 grams"})},
		{e.PropertyFeatures("Größe", []string{"24"}), e.PropertyFeatures("Auflösung", []string{"500"})},
	}
	dst := make([]float64, p.Dim())
	var es text.EditScratch
	for _, pr := range pairs {
		p.PairVectorScratch(dst, pr[0], pr[1], &es) // warm the scratch
		if n := testing.AllocsPerRun(100, func() {
			p.PairVectorScratch(dst, pr[0], pr[1], &es)
		}); n != 0 {
			t.Errorf("PairVectorScratch(%q, %q) allocates %.1f times per run", pr[0].Name, pr[1].Name, n)
		}
	}
}
