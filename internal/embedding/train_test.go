package embedding

import (
	"bytes"
	"math/rand"
	"testing"

	"leapme/internal/mathx"
)

// synonymCorpus builds a corpus with two synonym groups that co-occur with
// distinct context words, so a sound trainer must embed same-group words
// closer together than cross-group words.
func synonymCorpus(n int, seed int64) [][]string {
	groupA := []string{"megapixels", "mp", "resolution"}
	groupB := []string{"weight", "mass", "grams"}
	ctxA := []string{"image", "sensor", "photo", "pixels"}
	ctxB := []string{"heavy", "light", "body", "kg"}
	rng := rand.New(rand.NewSource(seed))
	var out [][]string
	for i := 0; i < n; i++ {
		a := groupA[rng.Intn(len(groupA))]
		b := groupB[rng.Intn(len(groupB))]
		out = append(out,
			[]string{"the", "camera", a, ctxA[rng.Intn(len(ctxA))], ctxA[rng.Intn(len(ctxA))]},
			[]string{"the", "camera", b, ctxB[rng.Intn(len(ctxB))], ctxB[rng.Intn(len(ctxB))]},
		)
	}
	return out
}

// checkSynonymGeometry asserts that within-group similarity beats
// cross-group similarity for the trained store.
func checkSynonymGeometry(t *testing.T, s *Store, trainer string) {
	t.Helper()
	within := (s.Similarity("megapixels", "mp") + s.Similarity("mp", "resolution")) / 2
	cross := (s.Similarity("megapixels", "weight") + s.Similarity("mp", "grams")) / 2
	if within <= cross {
		t.Errorf("%s: within-group sim %.3f not above cross-group %.3f", trainer, within, cross)
	}
}

func TestTrainGloVeSynonymGeometry(t *testing.T) {
	cfg := DefaultGloVeConfig()
	cfg.Dim = 16
	cfg.Epochs = 40
	s, err := TrainGloVe(synonymCorpus(150, 7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Dim() != 16 {
		t.Fatalf("dim = %d", s.Dim())
	}
	checkSynonymGeometry(t, s, "glove")
}

func TestTrainGloVeDeterministic(t *testing.T) {
	cfg := DefaultGloVeConfig()
	cfg.Dim = 8
	cfg.Epochs = 3
	corpus := synonymCorpus(20, 3)
	a, err := TrainGloVe(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainGloVe(corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range a.Words() {
		va, vb := a.Vector(w), b.Vector(w)
		for i := range va {
			if va[i] != vb[i] {
				t.Fatalf("non-deterministic training for word %q", w)
			}
		}
	}
}

func TestTrainGloVeErrors(t *testing.T) {
	if _, err := TrainGloVe(nil, DefaultGloVeConfig()); err == nil {
		t.Error("empty corpus should error")
	}
	cfg := DefaultGloVeConfig()
	cfg.Dim = 0
	if _, err := TrainGloVe(synonymCorpus(5, 1), cfg); err == nil {
		t.Error("zero dim should error")
	}
	cfg = DefaultGloVeConfig()
	cfg.Epochs = 0
	if _, err := TrainGloVe(synonymCorpus(5, 1), cfg); err == nil {
		t.Error("zero epochs should error")
	}
	// Single-word sentences have no co-occurrences.
	if _, err := TrainGloVe([][]string{{"lonely"}}, DefaultGloVeConfig()); err == nil {
		t.Error("no-pair corpus should error")
	}
}

func TestStoreBasics(t *testing.T) {
	s, err := NewStore([]string{"a", "b"}, 2, []float64{1, 0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Contains("a") || s.Contains("zz") {
		t.Error("Contains broken")
	}
	if v := s.Vector("zz"); mathx.Norm2(v) != 0 {
		t.Error("unknown word should map to zero vector")
	}
	if got := s.Similarity("a", "b"); got != 0 {
		t.Errorf("orthogonal sim = %v", got)
	}
}

func TestStoreValidation(t *testing.T) {
	if _, err := NewStore([]string{"a"}, 1, []float64{1, 2}); err == nil {
		t.Error("mismatched lengths should error")
	}
	if _, err := NewStore(nil, 1, nil); err == nil {
		t.Error("empty store should error")
	}
	if _, err := NewStore([]string{"a", "a"}, 1, []float64{1, 2}); err == nil {
		t.Error("duplicate words should error")
	}
	if _, err := NewStore([]string{"a", "b"}, 2, []float64{1, 2, 3}); err == nil {
		t.Error("a slab short of n×dim should error")
	}
	if _, err := NewStore([]string{"a"}, 0, []float64{}); err == nil {
		t.Error("zero-dim vectors should error")
	}
}

// TestVectorAppendKeepsNextRow: the store's vectors share one slab, so
// Vector must cap each row; an append by the caller reallocates instead
// of writing into the next word's vector.
func TestVectorAppendKeepsNextRow(t *testing.T) {
	s, _ := NewStore([]string{"a", "b"}, 2, []float64{1, 2, 3, 4})
	_ = append(s.Vector("a"), 99)
	if b := s.Vector("b"); b[0] != 3 || b[1] != 4 {
		t.Fatalf("append to a's vector wrote into b's: %v", b)
	}
}

// TestStoreAverage pins the average EncodePhrase takes over a phrase's
// tokens.
func TestStoreAverage(t *testing.T) {
	s, _ := NewStore([]string{"a", "b"}, 2, []float64{2, 0, 0, 2})
	avg := s.EncodePhrase("a b")
	if avg[0] != 1 || avg[1] != 1 {
		t.Errorf("average = %v", avg)
	}
	// Unknown words count in the denominator (paper: zero vector).
	avg = s.EncodePhrase("a unknown")
	if avg[0] != 1 || avg[1] != 0 {
		t.Errorf("average with unknown = %v", avg)
	}
	if z := s.EncodePhrase(""); mathx.Norm2(z) != 0 {
		t.Error("empty average should be zero vector")
	}
}

func TestEncodePhrase(t *testing.T) {
	s, _ := NewStore([]string{"camera", "resolution"}, 2, []float64{1, 0, 0, 1})
	v := s.EncodePhrase("Camera-RESOLUTION")
	if v[0] != 0.5 || v[1] != 0.5 {
		t.Errorf("EncodePhrase = %v", v)
	}
}

func TestNearest(t *testing.T) {
	s, _ := NewStore([]string{"a", "b", "c"}, 2, []float64{1, 0, 0.9, 0.1, 0, 1})
	nn := s.Nearest("a", 2)
	if len(nn) != 2 || nn[0].Word != "b" {
		t.Errorf("Nearest = %+v", nn)
	}
	if s.Nearest("absent", 2) != nil {
		t.Error("Nearest of unknown word should be nil")
	}
	if s.Nearest("a", 0) != nil {
		t.Error("Nearest with k=0 should be nil")
	}
}

func TestStoreRoundTrip(t *testing.T) {
	cfg := DefaultGloVeConfig()
	cfg.Dim = 8
	cfg.Epochs = 2
	s, err := TrainGloVe(synonymCorpus(10, 9), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dim() != s.Dim() || got.Size() != s.Size() {
		t.Fatalf("round trip changed shape: %dx%d vs %dx%d", got.Size(), got.Dim(), s.Size(), s.Dim())
	}
	for _, w := range s.Words() {
		va, vb := s.Vector(w), got.Vector(w)
		for i := range va {
			if va[i] != vb[i] {
				t.Fatalf("round trip changed vector for %q", w)
			}
		}
	}
}

func TestReadStoreBadInput(t *testing.T) {
	if _, err := ReadStore(bytes.NewReader([]byte("garbage data here"))); err == nil {
		t.Error("bad magic should error")
	}
	if _, err := ReadStore(bytes.NewReader(nil)); err == nil {
		t.Error("empty input should error")
	}
	// Truncated payload after a valid header.
	var buf bytes.Buffer
	s, _ := NewStore([]string{"a"}, 2, []float64{1, 2})
	s.WriteTo(&buf)
	trunc := buf.Bytes()[:buf.Len()-4]
	if _, err := ReadStore(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated input should error")
	}
	if _, err := ReadStore(bytes.NewReader(append(buf.Bytes(), 0))); err == nil {
		t.Error("trailing bytes after the last vector should error")
	}
}
