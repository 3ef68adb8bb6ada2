package text

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestNGramsBasic(t *testing.T) {
	p, err := NGrams("ab", 2)
	if err != nil {
		t.Fatal(err)
	}
	// padded " ab " → " a", "ab", "b "
	want := map[string]int{" a": 1, "ab": 1, "b ": 1}
	if len(p) != len(want) {
		t.Fatalf("profile = %v", p)
	}
	for g, c := range want {
		if p[g] != c {
			t.Errorf("gram %q count = %d, want %d", g, p[g], c)
		}
	}
}

func TestNGramsEmpty(t *testing.T) {
	if p, err := NGrams("", 3); err != nil || len(p) != 0 {
		t.Errorf("empty string profile = %v (err %v)", p, err)
	}
}

func TestNGramsCounts(t *testing.T) {
	p, err := NGrams("aaaa", 2)
	if err != nil {
		t.Fatal(err)
	}
	if p["aa"] != 3 {
		t.Errorf(`count of "aa" in "aaaa" = %d, want 3`, p["aa"])
	}
}

func TestNGramsRejectsBadQ(t *testing.T) {
	for _, q := range []int{0, -1, -100} {
		if _, err := NGrams("abc", q); err == nil {
			t.Errorf("q=%d accepted", q)
		}
	}
}

func TestQGramDistance(t *testing.T) {
	a := TriGrams("night")
	b := TriGrams("nacht")
	if d := QGramDistance(a, b); d <= 0 {
		t.Errorf("distance = %d, want positive", d)
	}
	if d := QGramDistance(a, a); d != 0 {
		t.Errorf("self distance = %d", d)
	}
}

func TestTriGramDistances(t *testing.T) {
	if d := TriGramDistance("same", "same"); d != 0 {
		t.Errorf("identical 3-gram distance = %v", d)
	}
	if d := TriGramCosineDistance("same", "same"); math.Abs(d) > 1e-12 {
		t.Errorf("identical cosine distance = %v", d)
	}
	if d := TriGramJaccardDistance("same", "same"); d != 0 {
		t.Errorf("identical jaccard distance = %v", d)
	}
	if d := TriGramDistance("", ""); d != 0 {
		t.Errorf("empty trigram distance = %v", d)
	}
	if d := TriGramCosineDistance("abc", ""); d != 1 {
		t.Errorf("nonempty-vs-empty cosine distance = %v, want 1", d)
	}
}

func TestProfileDistanceProperties(t *testing.T) {
	f := func(a, b string) bool {
		a, b = trimLong(a), trimLong(b)
		pa, pb := TriGrams(a), TriGrams(b)
		cos := pa.CosineDistance(pb)
		jac := pa.JaccardDistance(pb)
		qd := NormalizedQGramDistance(pa, pb)
		// bounds
		if cos < -1e-12 || cos > 1+1e-12 || jac < 0 || jac > 1 || qd < 0 || qd > 1 {
			return false
		}
		// symmetry
		if math.Abs(cos-pb.CosineDistance(pa)) > 1e-12 {
			return false
		}
		if math.Abs(jac-pb.JaccardDistance(pa)) > 1e-12 {
			return false
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestSimilarStringsCloserThanDissimilar(t *testing.T) {
	near := TriGramDistance("megapixels", "megapixel")
	far := TriGramDistance("megapixels", "shutter speed")
	if near >= far {
		t.Errorf("3-gram distance should rank near pair first: near=%v far=%v", near, far)
	}
}

// NGrams returns the padded q-gram profile of s. A non-positive q is an
// input error, not a panic: q often arrives from user configuration.
func NGrams(s string, q int) (NGramProfile, error) {
	if q <= 0 {
		return nil, fmt.Errorf("text: NGrams with non-positive q %d", q)
	}
	return ngrams(s, q), nil
}
