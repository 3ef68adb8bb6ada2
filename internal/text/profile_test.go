package text_test

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"leapme/internal/dataset"
	"leapme/internal/text"
)

// oracleDistances computes the eight name distances with the
// string-taking functions, in NameDistances order.
func oracleDistances(a, b string) [text.NumNameDistances]float64 {
	return [text.NumNameDistances]float64{
		text.NormalizedOSA(a, b),
		text.NormalizedLevenshtein(a, b),
		text.NormalizedDamerauLevenshtein(a, b),
		text.NormalizedLCSubstring(a, b),
		text.TriGramDistance(a, b),
		text.TriGramCosineDistance(a, b),
		text.TriGramJaccardDistance(a, b),
		text.JaroWinklerDistance(a, b),
	}
}

var distanceNames = [text.NumNameDistances]string{
	"osa", "levenshtein", "damerau", "lcsubstring", "qgram", "cosine", "jaccard", "jarowinkler",
}

// edgeNames are the hand-picked inputs: the empty name, non-ASCII
// names (the rune-DP fallback), invalid UTF-8 (folded to U+FFFD by the
// rune conversion), pad-rune look-alikes and names on both sides of the
// 64-rune bit-vector gate.
func edgeNames() []string {
	names := []string{
		"", " ", "  ", "a", "ab", "ba", "ca", "abc", "aaaa", "a a",
		"größe", "grosse", "auflösung", "aufloesung", "résumé", "resume",
		"日本語", "日本", "ö", " x",
		"\xff", "\xff\xfe", "a\xc3", "\xc3\xa9", "é", "a\xffb", "\xed\xa0\x80",
		"camera resolution", "effective pixels", "resolution",
		"kitten", "sitting", "a cat", "an act", "fee", "deed",
	}
	// Both sides of the 64-rune gate: at, past, transposed, non-ASCII.
	long := strings.Repeat("abcdefghijklmnopqrstuvwxyz", 3)
	names = append(names, long[:64], long[:65], "ba"+long[2:64], long[:64]+"ö", long[:63]+" ")
	return names
}

// presetNames returns the distinct normalised property names of the
// four lite presets and of full cameras, sorted.
func presetNames(t testing.TB) []string {
	t.Helper()
	seen := map[string]bool{}
	for _, gc := range []dataset.GenConfig{
		dataset.Lite(dataset.CamerasConfig(1)),
		dataset.Lite(dataset.HeadphonesConfig(1)),
		dataset.Lite(dataset.PhonesConfig(1)),
		dataset.Lite(dataset.TVsConfig(1)),
		dataset.CamerasConfig(1),
	} {
		d, err := dataset.Generate(gc)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range d.Props {
			seen[text.NormalizeName(p.Name)] = true
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// randomName draws a string over {a, b, c, space} of length 0–70, which
// covers both sides of the 64-rune gate and dense repeats of every gram.
func randomName(rng *rand.Rand) string {
	const alphabet = "abc "
	b := make([]byte, rng.Intn(71))
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

// checkAgainstOracle compares NameDistances on (a, b) with the oracle
// bit for bit, reusing the caller's warm scratch and destination.
func checkAgainstOracle(t testing.TB, a, b string, es *text.EditScratch, dst []float64) {
	t.Helper()
	pa, pb := text.NewNameProfile(a), text.NewNameProfile(b)
	for i := range dst {
		dst[i] = math.NaN() // stale values must not survive
	}
	text.NameDistances(dst, &pa, &pb, es)
	want := oracleDistances(a, b)
	for k := range want {
		if math.Float64bits(dst[k]) != math.Float64bits(want[k]) {
			t.Fatalf("%s(%q, %q) = %v (%#x), oracle %v (%#x)", distanceNames[k], a, b,
				dst[k], math.Float64bits(dst[k]), want[k], math.Float64bits(want[k]))
		}
	}
}

// TestNameDistancesMatchOracle pins the equivalence contract of
// NameDistances: every one of the eight values is bit-identical to the
// string-taking function it replaces, on the names the presets generate,
// on random names across the 64-rune gate, and on non-ASCII, invalid
// UTF-8 and empty names. One scratch serves every case, so a buffer or
// table left dirty by one pair shows up in the next.
func TestNameDistancesMatchOracle(t *testing.T) {
	var es text.EditScratch
	dst := make([]float64, text.NumNameDistances)

	edge := edgeNames()
	for _, a := range edge {
		for _, b := range edge {
			checkAgainstOracle(t, a, b, &es, dst)
		}
	}

	names := presetNames(t)
	// Every name against its sorted neighbour (names sharing prefixes),
	// a strided sample across the list and an edge name.
	stride := len(names)/37 + 1
	for i, a := range names {
		for _, j := range []int{i + 1, i + stride, i * 7} {
			checkAgainstOracle(t, a, names[j%len(names)], &es, dst)
		}
		checkAgainstOracle(t, a, edge[i%len(edge)], &es, dst)
	}

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		checkAgainstOracle(t, randomName(rng), randomName(rng), &es, dst)
	}
}

// TestNameDistancesZeroAllocs is the dynamic half of NameDistances'
// //lint:hotpath contract: on a warm scratch, short ASCII pairs (the
// word-size path), long pairs and non-ASCII pairs (rune DPs) allocate
// nothing.
func TestNameDistancesZeroAllocs(t *testing.T) {
	pairs := [][2]string{
		{"camera resolution", "effective pixels"},
		{"größe", "auflösung"},
		{"abcdefghijklmnopqrstuvwxyzabcdefghijklmnopqrstuvwxyzabcdefghijklm", "sensor size"},
		{"", "weight"},
	}
	var es text.EditScratch
	dst := make([]float64, text.NumNameDistances)
	for _, pr := range pairs {
		a, b := text.NewNameProfile(pr[0]), text.NewNameProfile(pr[1])
		text.NameDistances(dst, &a, &b, &es) // warm the scratch
		if n := testing.AllocsPerRun(100, func() {
			text.NameDistances(dst, &a, &b, &es)
			text.NameDistances(dst, &b, &a, &es)
		}); n != 0 {
			t.Errorf("NameDistances(%q, %q) allocates %.1f times per run", pr[0], pr[1], n)
		}
	}
}

// maxFuzzBytes caps fuzzed names: far past the 64-rune gate, yet short
// enough that the oracle's quadratic DPs keep the fuzzer fast.
const maxFuzzBytes = 200

// FuzzNameDistances checks, for any two strings, that NameDistances
// equals the string oracle bit for bit, that every value lies in
// [0, 1], and that the seven symmetric distances (all but Jaro–Winkler)
// are bit-identical with the arguments swapped.
func FuzzNameDistances(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	edge := edgeNames()
	for i, a := range edge {
		f.Add(a, edge[(i+1)%len(edge)])
		f.Add(randomName(rng), a)
	}
	var es text.EditScratch
	ab := make([]float64, text.NumNameDistances)
	ba := make([]float64, text.NumNameDistances)
	f.Fuzz(func(t *testing.T, a, b string) {
		a, b = a[:min(len(a), maxFuzzBytes)], b[:min(len(b), maxFuzzBytes)]
		checkAgainstOracle(t, a, b, &es, ab)
		pa, pb := text.NewNameProfile(a), text.NewNameProfile(b)
		text.NameDistances(ba, &pb, &pa, &es)
		for k, v := range ab {
			if !(v >= 0 && v <= 1) {
				t.Fatalf("%s(%q, %q) = %v, outside [0, 1]", distanceNames[k], a, b, v)
			}
			if k != 7 && math.Float64bits(v) != math.Float64bits(ba[k]) {
				t.Fatalf("%s not symmetric on (%q, %q): %v vs %v", distanceNames[k], a, b, v, ba[k])
			}
		}
	})
}
