package text

import (
	"math"
	"testing"
)

// The string-taking distances below are the oracle NameDistances (and
// through it every pair vector) is pinned to: TestNameDistancesMatchOracle
// and FuzzNameDistances compare all eight values bit for bit. Production
// code computes them only through NameDistances over NameProfiles.

// JaroWinklerDistance returns 1 − JaroWinkler(a, b), the form used as a
// property-pair feature (Table I row 15).
func JaroWinklerDistance(a, b string) float64 { return 1 - JaroWinkler(a, b) }

// NormalizedLevenshtein returns Levenshtein(a,b) / max(|a|,|b|) in [0, 1],
// with distance 0 for two empty strings.
func NormalizedLevenshtein(a, b string) float64 {
	return normalizeByMaxLen(Levenshtein(a, b), a, b)
}

// NormalizedOSA returns OSA(a,b) / max(|a|,|b|) in [0, 1].
func NormalizedOSA(a, b string) float64 {
	return normalizeByMaxLen(OSA(a, b), a, b)
}

// NormalizedDamerauLevenshtein returns DamerauLevenshtein(a,b) / max(|a|,|b|).
func NormalizedDamerauLevenshtein(a, b string) float64 {
	return normalizeByMaxLen(DamerauLevenshtein(a, b), a, b)
}

// NormalizedLCSubstring returns LCSubstringDistance(a,b) / max(|a|,|b|).
func NormalizedLCSubstring(a, b string) float64 {
	return normalizeByMaxLen(LCSubstringDistance(a, b), a, b)
}

func normalizeByMaxLen(d int, a, b string) float64 {
	la, lb := len([]rune(a)), len([]rune(b))
	m := max2(la, lb)
	if m == 0 {
		return 0
	}
	return float64(d) / float64(m)
}

// TriGramDistance is the normalised 3-gram distance between two strings
// (Table I row 12).
func TriGramDistance(a, b string) float64 {
	return NormalizedQGramDistance(TriGrams(a), TriGrams(b))
}

// TriGramCosineDistance is the cosine distance between the 3-gram profiles
// of two strings (Table I row 13).
func TriGramCosineDistance(a, b string) float64 {
	return TriGrams(a).CosineDistance(TriGrams(b))
}

// TriGramJaccardDistance is the Jaccard distance between the 3-gram
// profiles of two strings (Table I row 14).
func TriGramJaccardDistance(a, b string) float64 {
	return TriGrams(a).JaccardDistance(TriGrams(b))
}

// Levenshtein returns the classic edit distance between a and b
// (insertions, deletions, substitutions, unit cost).
func Levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 {
		return lb
	}
	if lb == 0 {
		return la
	}
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[lb]
}

// OSA returns the optimal string alignment distance (also called the
// restricted Damerau–Levenshtein distance): Levenshtein plus transposition
// of two adjacent characters, with the restriction that no substring is
// edited more than once. Unlike the full Damerau–Levenshtein distance it
// does not satisfy the triangle inequality (e.g. "ca" → "abc").
func OSA(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 {
		return lb
	}
	if lb == 0 {
		return la
	}
	// Three rolling rows: i-2, i-1, i.
	prev2 := make([]int, lb+1)
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			d := min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
			if i > 1 && j > 1 && ra[i-1] == rb[j-2] && ra[i-2] == rb[j-1] {
				if t := prev2[j-2] + 1; t < d {
					d = t
				}
			}
			cur[j] = d
		}
		prev2, prev, cur = prev, cur, prev2
	}
	return prev[lb]
}

// DamerauLevenshtein returns the full (unrestricted) Damerau–Levenshtein
// distance, which allows transposed characters to be edited again and is a
// true metric. This is the O(|a|·|b|) alphabet-indexed algorithm of
// Lowrance & Wagner.
func DamerauLevenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 {
		return lb
	}
	if lb == 0 {
		return la
	}
	inf := la + lb + 1
	// d is (la+2)×(lb+2) with a sentinel row/column of `inf`.
	w := lb + 2
	d := make([]int, (la+2)*w)
	at := func(i, j int) int { return d[i*w+j] }
	set := func(i, j, v int) { d[i*w+j] = v }
	set(0, 0, inf)
	for i := 0; i <= la; i++ {
		set(i+1, 0, inf)
		set(i+1, 1, i)
	}
	for j := 0; j <= lb; j++ {
		set(0, j+1, inf)
		set(1, j+1, j)
	}
	lastRow := map[rune]int{} // last row where each rune occurred in a
	for i := 1; i <= la; i++ {
		lastCol := 0 // last column in this row where ra[i-1] == rb[j-1]
		for j := 1; j <= lb; j++ {
			i1 := lastRow[rb[j-1]]
			j1 := lastCol
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
				lastCol = j
			}
			sub := at(i, j) + cost
			ins := at(i+1, j) + 1
			del := at(i, j+1) + 1
			trans := inf
			if i1 > 0 && j1 > 0 {
				trans = at(i1, j1) + (i - i1 - 1) + 1 + (j - j1 - 1)
			}
			set(i+1, j+1, min4(sub, ins, del, trans))
		}
		lastRow[ra[i-1]] = i
	}
	return at(la+1, lb+1)
}

// LCSubstringDistance is the longest-common-substring distance used by the
// paper: max(|a|,|b|) − LCSubstring(a,b), normalised later per feature.
func LCSubstringDistance(a, b string) int {
	la, lb := len([]rune(a)), len([]rune(b))
	m := la
	if lb > m {
		m = lb
	}
	return m - LongestCommonSubstring(a, b)
}

// TriGrams returns the padded 3-gram profile of s.
func TriGrams(s string) NGramProfile { return ngrams(s, 3) }

// NormalizedQGramDistance returns QGramDistance scaled by the total gram
// count of both profiles, giving a value in [0, 1]. Two empty profiles have
// distance 0.
func NormalizedQGramDistance(a, b NGramProfile) float64 {
	total := 0
	for _, c := range a {
		total += c
	}
	for _, c := range b {
		total += c
	}
	if total == 0 {
		return 0
	}
	return float64(QGramDistance(a, b)) / float64(total)
}

// CosineDistance returns 1 − cosine similarity between the profiles viewed
// as sparse count vectors. Two empty profiles have distance 0; one empty
// profile against a non-empty one has distance 1.
func (a NGramProfile) CosineDistance(b NGramProfile) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	var dot, na, nb float64
	for g, ca := range a {
		fa := float64(ca)
		na += fa * fa
		if cb, ok := b[g]; ok {
			dot += fa * float64(cb)
		}
	}
	for _, cb := range b {
		fb := float64(cb)
		nb += fb * fb
	}
	if na == 0 || nb == 0 {
		return 1
	}
	d := 1 - dot/(math.Sqrt(na)*math.Sqrt(nb))
	if d < 0 {
		return 0 // clamp float residue; a distance is never negative
	}
	return d
}

// JaccardDistance returns 1 − |A∩B| / |A∪B| over the gram *sets* (counts
// ignored). Two empty profiles have distance 0.
func (a NGramProfile) JaccardDistance(b NGramProfile) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	inter := 0
	for g := range a {
		if _, ok := b[g]; ok {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return 1 - float64(inter)/float64(union)
}

// NGramProfile is a multiset of the character q-grams of a string, as used
// by the 3-gram features of Table I (rows 12–14). Strings are padded with
// q−1 leading and trailing sentinel runes so that short strings still
// produce grams, following the convention of the original q-gram distance
// (Ukkonen 1992).
type NGramProfile map[string]int

// ngrams computes the profile for a q already known to be positive.
func ngrams(s string, q int) NGramProfile {
	runes := []rune(s)
	if len(runes) == 0 {
		return NGramProfile{}
	}
	padded := make([]rune, 0, len(runes)+2*(q-1))
	for i := 0; i < q-1; i++ {
		padded = append(padded, padRune)
	}
	padded = append(padded, runes...)
	for i := 0; i < q-1; i++ {
		padded = append(padded, padRune)
	}
	p := make(NGramProfile, len(padded))
	for i := 0; i+q <= len(padded); i++ {
		p[string(padded[i:i+q])]++
	}
	return p
}

// QGramDistance returns the L1 distance between two q-gram profiles: the
// total count of grams present in one profile but not the other.
func QGramDistance(a, b NGramProfile) int {
	d := 0
	for g, ca := range a {
		cb := b[g]
		if ca > cb {
			d += ca - cb
		} else {
			d += cb - ca
		}
	}
	for g, cb := range b {
		if _, ok := a[g]; !ok {
			d += cb
		}
	}
	return d
}

// LongestCommonSubstring returns the length of the longest contiguous
// substring shared by a and b.
func LongestCommonSubstring(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 || len(rb) == 0 {
		return 0
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	best := 0
	for i := 1; i <= len(ra); i++ {
		for j := 1; j <= len(rb); j++ {
			if ra[i-1] == rb[j-1] {
				cur[j] = prev[j-1] + 1
				if cur[j] > best {
					best = cur[j]
				}
			} else {
				cur[j] = 0
			}
		}
		prev, cur = cur, prev
	}
	return best
}

// BenchmarkStringDistances times the string-taking distance functions,
// the oracle NameDistances is tested against, on one fixed pair.
func BenchmarkStringDistances(b *testing.B) {
	a, c := "camera resolution", "effective pixels"
	for i := 0; i < b.N; i++ {
		NormalizedOSA(a, c)
		NormalizedLevenshtein(a, c)
		NormalizedDamerauLevenshtein(a, c)
		NormalizedLCSubstring(a, c)
		TriGramDistance(a, c)
		JaroWinklerDistance(a, c)
	}
}
