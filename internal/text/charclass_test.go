package text

import (
	"testing"
	"testing/quick"
	"unicode"
)

func TestClassifyRune(t *testing.T) {
	cases := []struct {
		r    rune
		want CharClass
	}{
		{'A', CharUpper},
		{'z', CharLower},
		{'中', CharOtherLet},
		{'5', CharNumber},
		{'.', CharPunct},
		{'+', CharSymbol},
		{'$', CharSymbol},
		{' ', CharSeparator},
		{'\t', CharSeparator},
		{'́', CharMark}, // combining acute accent
		{'\x00', CharOther},
	}
	for _, c := range cases {
		if got := ClassifyRune(c.r); got != c.want {
			t.Errorf("ClassifyRune(%q) = %v, want %v", c.r, got, c.want)
		}
	}
}

func TestCharClassCounts(t *testing.T) {
	counts, total := CharClassCounts("Ab 12.")
	if total != 6 {
		t.Fatalf("total = %d", total)
	}
	if counts[CharUpper] != 1 || counts[CharLower] != 1 || counts[CharNumber] != 2 ||
		counts[CharPunct] != 1 || counts[CharSeparator] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

func TestCharClassCountsSumToTotal(t *testing.T) {
	f := func(s string) bool {
		counts, total := CharClassCounts(s)
		sum := 0
		for _, c := range counts {
			sum += c
		}
		return sum == total
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestClassifyToken(t *testing.T) {
	in := ClassifyToken("Nikon")
	if !in[TokWord] || !in[TokCapital] || in[TokLowerInit] || in[TokUpper] || in[TokNumeric] {
		t.Errorf("Nikon classes = %v", in)
	}
	in = ClassifyToken("USB")
	if !in[TokWord] || !in[TokUpper] {
		t.Errorf("USB classes = %v", in)
	}
	in = ClassifyToken("24.5")
	if in[TokWord] || !in[TokNumeric] {
		t.Errorf("24.5 classes = %v", in)
	}
	in = ClassifyToken("1,920")
	if !in[TokNumeric] {
		t.Errorf("1,920 should be numeric: %v", in)
	}
	in = ClassifyToken("-3")
	if !in[TokNumeric] {
		t.Errorf("-3 should be numeric: %v", in)
	}
	in = ClassifyToken("f2.8")
	if !in[TokWord] || in[TokNumeric] || !in[TokLowerInit] {
		t.Errorf("f2.8 classes = %v", in)
	}
	in = ClassifyToken("")
	for c, ok := range in {
		if ok {
			t.Errorf("empty token in class %d", c)
		}
	}
}

func TestTokenClassCounts(t *testing.T) {
	counts, total := TokenClassCounts("Nikon D850 has 45.7 MP")
	if total != 5 {
		t.Fatalf("total tokens = %d", total)
	}
	if counts[TokNumeric] != 1 {
		t.Errorf("numeric count = %d, want 1 (45.7)", counts[TokNumeric])
	}
	if counts[TokUpper] != 1 { // only MP is all-uppercase letters (D850 contains digits)
		t.Errorf("upper count = %d, want 1", counts[TokUpper])
	}
	if counts[TokCapital] != 3 { // Nikon, D850, MP
		t.Errorf("capitalized count = %d, want 3", counts[TokCapital])
	}
	if counts[TokWord] != 4 { // Nikon, D850, has, MP
		t.Errorf("word count = %d, want 4", counts[TokWord])
	}
	if counts[TokLowerInit] != 1 { // has
		t.Errorf("lowerInit count = %d, want 1", counts[TokLowerInit])
	}
}

func TestCharClassString(t *testing.T) {
	if CharUpper.String() != "upper" || CharClass(99).String() != "invalid" {
		t.Error("CharClass.String broken")
	}
	if TokWord.String() != "word" || TokenClass(99).String() != "invalid" {
		t.Error("TokenClass.String broken")
	}
}

// ClassifyToken reports which token classes tok belongs to. The classes are
// not mutually exclusive: "Nikon" is both a word and capitalized.
func ClassifyToken(tok string) (in [NumTokenClasses]bool) {
	if tok == "" {
		return in
	}
	runes := []rune(tok)
	hasLetter := false
	allUpper := true
	for _, r := range runes {
		if unicode.IsLetter(r) {
			hasLetter = true
			if !unicode.IsUpper(r) {
				allUpper = false
			}
		} else {
			allUpper = false
		}
	}
	in[TokWord] = hasLetter
	in[TokLowerInit] = unicode.IsLower(runes[0])
	in[TokCapital] = unicode.IsUpper(runes[0]) && len(runes) > 1 && !unicode.IsSpace(runes[1])
	in[TokUpper] = hasLetter && allUpper
	in[TokNumeric] = isNumericString(tok)
	return in
}
