package text

import (
	"math/rand"
	"strings"
	"testing"
	"unicode"
)

// tokenCorpus is the shared boundary-rule corpus: every shape the
// tokenizer distinguishes, plus whitespace and Unicode edge cases.
var tokenCorpus = []string{
	"",
	" ",
	"   \t\n ",
	"camera",
	"Camera Resolution",
	"camera_resolution",
	"cameraResolution",
	"HDMIPort",
	"24MP",
	"mp24",
	"USB3Port",
	"shutterSpeed1_4000s",
	"ISO", "iso100", "100iso",
	"f/2.8 MAX aperture",
	"Größe", "GRÖSSE", "straße STRASSE",
	"ÇaVaBien", "ŐrültJó",
	"日本語トークン", "日本語 トークン2",
	"a", "A", "aA", "Aa", "AA", "AAb", "aAB", "ABc", "-", "--a--B--",
	"x1y2Z3", "MixedUPPERlower", "ENDS",
	"weight (kg)", "price, in $USD",
	"� repl�acement",
	"ümlautÜber", "ÜBERmensch",
}

func TestScanTokensMatchesTokenize(t *testing.T) {
	var ts TokenScratch
	check := func(s string) {
		t.Helper()
		want := Tokenize(s)
		ScanTokens(s, &ts)
		if ts.Count() != len(want) {
			t.Fatalf("ScanTokens(%q): %d tokens, Tokenize returned %d", s, ts.Count(), len(want))
		}
		for i, w := range want {
			if got := string(ts.Token(i)); got != w {
				t.Fatalf("ScanTokens(%q) token %d = %q, Tokenize = %q", s, i, got, w)
			}
		}
	}
	for _, s := range tokenCorpus {
		check(s)
	}
	// Randomised cross-check: strings over an alphabet that exercises
	// every boundary rule, including invalid UTF-8 replacement.
	rng := rand.New(rand.NewSource(7))
	alphabet := []rune("abAB12 _ßÖ日�.,-")
	for i := 0; i < 2000; i++ {
		n := rng.Intn(24)
		runes := make([]rune, n)
		for j := range runes {
			runes[j] = alphabet[rng.Intn(len(alphabet))]
		}
		check(string(runes))
	}
}

func TestScanTokensReuseDoesNotLeakPriorTokens(t *testing.T) {
	var ts TokenScratch
	ScanTokens("one two three four", &ts)
	ScanTokens("x", &ts)
	if ts.Count() != 1 || string(ts.Token(0)) != "x" {
		t.Fatalf("after rescan got %d tokens, first %q; want 1 token \"x\"", ts.Count(), ts.Token(0))
	}
	ScanTokens("", &ts)
	if ts.Count() != 0 {
		t.Fatalf("empty rescan left %d tokens", ts.Count())
	}
}

func TestScanTokensWarmAllocs(t *testing.T) {
	var ts TokenScratch
	// Warm the arena past every corpus entry, then require zero
	// steady-state allocations.
	for _, s := range tokenCorpus {
		ScanTokens(s, &ts)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, s := range tokenCorpus {
			ScanTokens(s, &ts)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm ScanTokens allocated %.1f times per corpus pass, want 0", allocs)
	}
}

// TestTokenClassCountsMatchesClassifyToken pins the in-place field scan
// to the Words + ClassifyToken reference it replaced.
func TestTokenClassCountsMatchesClassifyToken(t *testing.T) {
	ref := func(s string) (counts [NumTokenClasses]int, total int) {
		for _, tok := range Words(s) {
			in := ClassifyToken(tok)
			for c := TokenClass(0); c < NumTokenClasses; c++ {
				if in[c] {
					counts[c]++
				}
			}
			total++
		}
		return counts, total
	}
	for _, s := range tokenCorpus {
		wantC, wantN := ref(s)
		gotC, gotN := TokenClassCounts(s)
		if gotC != wantC || gotN != wantN {
			t.Fatalf("TokenClassCounts(%q) = %v/%d, reference = %v/%d", s, gotC, gotN, wantC, wantN)
		}
	}
	rng := rand.New(rand.NewSource(11))
	alphabet := []rune("abAB12 \t_ßÖ日.,-+")
	for i := 0; i < 2000; i++ {
		n := rng.Intn(24)
		runes := make([]rune, n)
		for j := range runes {
			runes[j] = alphabet[rng.Intn(len(alphabet))]
		}
		s := string(runes)
		wantC, wantN := ref(s)
		gotC, gotN := TokenClassCounts(s)
		if gotC != wantC || gotN != wantN {
			t.Fatalf("TokenClassCounts(%q) = %v/%d, reference = %v/%d", s, gotC, gotN, wantC, wantN)
		}
	}
}

func TestTokenClassCountsZeroAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		TokenClassCounts("Nikon D850 45.7MP full-frame BODY only")
	})
	if allocs != 0 {
		t.Fatalf("TokenClassCounts allocated %.1f times per run, want 0", allocs)
	}
}

// Words splits s on Unicode whitespace without lowercasing or splitting on
// punctuation. It is the raw token stream the TAPON token-type features
// (Table I row 2) are computed over, where capitalisation matters.
func Words(s string) []string {
	return strings.FieldsFunc(s, unicode.IsSpace)
}
