package embedding

import (
	"math"
	"math/rand"
	"testing"

	"leapme/internal/mathx"
	"leapme/internal/text"
)

func encodeTestStore(t *testing.T) *Store {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	words := []string{"camera", "resolution", "hdmi", "port", "24", "mp", "weight", "größe"}
	vecs := make([]float64, len(words)*8)
	for i := range vecs {
		vecs[i] = rng.NormFloat64()
	}
	s, err := NewStore(words, 8, vecs)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// averageOracle is the reference the phrase encoder is pinned to:
// text.Tokenize, then each token's vector (the zero vector for an
// unknown token) added to a zeroed sum in token order, scaled once by
// 1/count.
func averageOracle(s *Store, phrase string) []float64 {
	toks := text.Tokenize(phrase)
	out := make([]float64, s.Dim())
	if len(toks) == 0 {
		return out
	}
	for _, w := range toks {
		mathx.AddTo(out, out, s.Vector(w))
	}
	mathx.ScaleTo(out, out, 1/float64(len(toks)))
	return out
}

// TestEncodePhraseIntoBitIdentity pins EncodePhraseInto and EncodePhrase
// to averageOracle bit for bit, including phrases that are all-unknown,
// empty, and mixed known/unknown — the zero-vector adds must still
// happen so signed zeros match.
func TestEncodePhraseIntoBitIdentity(t *testing.T) {
	s := encodeTestStore(t)
	phrases := []string{
		"",
		"   ",
		"camera resolution",
		"CameraResolution",
		"HDMIPort weight",
		"24MP",
		"völlig unbekannt phrase",
		"camera unknownword camera",
		"GRÖSSE größe",
	}
	var ts text.TokenScratch
	dst := make([]float64, s.Dim())
	for _, ph := range phrases {
		want := averageOracle(s, ph)
		s.EncodePhraseInto(dst, ph, &ts)
		fresh := s.EncodePhrase(ph)
		for i := range dst {
			if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
				t.Fatalf("EncodePhraseInto(%q)[%d] = %x, oracle = %x",
					ph, i, math.Float64bits(dst[i]), math.Float64bits(want[i]))
			}
			if math.Float64bits(fresh[i]) != math.Float64bits(want[i]) {
				t.Fatalf("EncodePhrase(%q)[%d] = %x, oracle = %x",
					ph, i, math.Float64bits(fresh[i]), math.Float64bits(want[i]))
			}
		}
	}
}

func TestEncodePhraseIntoWarmAllocs(t *testing.T) {
	s := encodeTestStore(t)
	var ts text.TokenScratch
	dst := make([]float64, s.Dim())
	s.EncodePhraseInto(dst, "camera resolution HDMIPort 24MP unknownword", &ts)
	allocs := testing.AllocsPerRun(100, func() {
		s.EncodePhraseInto(dst, "camera resolution HDMIPort 24MP unknownword", &ts)
	})
	if allocs != 0 {
		t.Fatalf("warm EncodePhraseInto allocated %.1f times per run, want 0", allocs)
	}
}

func TestEncodePhraseIntoPanicsOnBadDim(t *testing.T) {
	s := encodeTestStore(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong dst length")
		}
	}()
	var ts text.TokenScratch
	s.EncodePhraseInto(make([]float64, s.Dim()+1), "camera", &ts)
}
