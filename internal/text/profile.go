package text

import (
	"math"
	"math/bits"
	"slices"
	"unicode/utf8"
)

// This file is the one implementation of the eight name distances on
// the feature path (Table I rows 8–15): NameProfile, built once per
// property, and NameDistances, which computes all eight for a pair of
// profiles. The package doc lists the algorithms and the word-size gate;
// the rune DPs of scratch.go serve every pair outside it. Every value is
// bit-identical to the string-taking functions of oracle_test.go:
// TestNameDistancesMatchOracle and FuzzNameDistances pin it.

// NumNameDistances is the number of values NameDistances writes.
const NumNameDistances = 8

// maxWordRunes is the longest name the word-size path takes: one bit of
// a uint64 per rune.
const maxWordRunes = 64

// padRune pads a name on both sides before its 3-grams are taken, so
// the padding grams mark word edges (Ukkonen 1992).
const padRune = '\x20'

// NameProfile is one name prepared for NameDistances: its runes, whether
// they are all ASCII, and the multiset of its padded 3-grams (the
// TriGrams profile) as sorted packed ids with counts. Build it with
// NewNameProfile; it is immutable afterwards and safe to share.
type NameProfile struct {
	runes  []rune
	ascii  bool
	grams  []uint64 // distinct 3-gram ids, ascending
	counts []int32  // counts[i] is the multiplicity of grams[i]
	total  int      // sum of counts
	l2     float64  // sqrt of the sum of squared counts
}

// NewNameProfile profiles s as given; callers normalise first (see
// NormalizeName). The profile is returned by value so a caller can embed
// it in its own per-property record.
func NewNameProfile(s string) NameProfile {
	// []rune(s) replaces each invalid UTF-8 byte with U+FFFD, as every
	// oracle function's own conversion does, so every rune is valid and
	// fits the 21 bits packGram gives it.
	p := NameProfile{runes: []rune(s), ascii: true}
	for _, r := range p.runes {
		if r >= utf8.RuneSelf {
			p.ascii = false
			break
		}
	}
	n := len(p.runes)
	if n == 0 {
		return p // TriGrams("") is empty: no padding grams either
	}
	// Padding with two spaces on each side gives n+2 grams; gram k is
	// (at(k-2), at(k-1), at(k)) with at(i) = ' ' outside the name.
	at := func(i int) rune {
		if i < 0 || i >= n {
			return padRune
		}
		return p.runes[i]
	}
	var buf [maxWordRunes + 2]uint64
	ids := buf[:0]
	for k := 0; k < n+2; k++ {
		ids = append(ids, packGram(at(k-2), at(k-1), at(k)))
	}
	slices.Sort(ids)
	distinct := 1
	for k := 1; k < len(ids); k++ {
		if ids[k] != ids[k-1] {
			distinct++
		}
	}
	p.grams = make([]uint64, 0, distinct)
	p.counts = make([]int32, 0, distinct)
	for k, id := range ids {
		if k == 0 || id != ids[k-1] {
			p.grams = append(p.grams, id)
			p.counts = append(p.counts, 0)
		}
		p.counts[len(p.counts)-1]++
	}
	sumSq := 0
	for _, c := range p.counts {
		sumSq += int(c) * int(c)
	}
	p.total = len(ids)
	p.l2 = math.Sqrt(float64(sumSq))
	return p
}

// packGram packs a 3-gram into one id, 21 bits per rune (the largest
// rune, U+10FFFF, needs 21). Distinct rune triples get distinct ids,
// exactly as distinct triples give distinct map keys in the oracle.
func packGram(r0, r1, r2 rune) uint64 {
	return uint64(r0)<<42 | uint64(r1)<<21 | uint64(r2)
}

// NameDistances writes the eight name distances between the profiled
// names into dst[:NumNameDistances], in Table I order: OSA, Levenshtein,
// full Damerau–Levenshtein and longest-common-substring distance (each
// normalised by the longer name's rune count), then the 3-gram,
// 3-gram cosine, 3-gram Jaccard and Jaro–Winkler distances. Each value
// is bit-identical to its string-taking oracle (NormalizedOSA, …,
// JaroWinklerDistance) on the profiled strings. With a warm scratch it
// performs no heap allocations.
//
//lint:hotpath gated by TestNameDistancesZeroAllocs
func NameDistances(dst []float64, a, b *NameProfile, s *EditScratch) {
	dst = dst[:NumNameDistances]
	ra, rb := a.runes, b.runes
	var lev, osa, dl, lcs int
	var jw float64
	if a.ascii && b.ascii && len(ra) <= maxWordRunes && len(rb) <= maxWordRunes {
		lev, osa, dl, lcs, jw = wordDistances(ra, rb, s)
	} else {
		lev, osa = levenshteinRunes(ra, rb, s), osaRunes(ra, rb, s)
		dl = damerauLevenshteinRunes(ra, rb, s)
		lcs = longestCommonSubstringRunes(ra, rb, s)
		jw = jaroWinklerRunes(ra, rb, s)
	}
	m := max2(len(ra), len(rb))
	dst[0] = byMaxLen(osa, m)
	dst[1] = byMaxLen(lev, m)
	dst[2] = byMaxLen(dl, m)
	dst[3] = byMaxLen(m-lcs, m)
	dst[4], dst[5], dst[6] = gramDistances(a, b)
	dst[7] = 1 - jw
}

// wordDistances computes the edit-family values of two ASCII names of
// at most 64 runes: Levenshtein, OSA, Damerau–Levenshtein, the longest
// common substring and the Jaro–Winkler similarity. Each name's match
// masks (bit i of peqA[c] is set when ra[i] == c) are built once here
// and cleared before returning.
func wordDistances(ra, rb []rune, s *EditScratch) (lev, osa, dl, lcs int, jw float64) {
	for i, r := range ra {
		s.peqA[r] |= 1 << uint(i)
	}
	for j, r := range rb {
		s.peqB[r] |= 1 << uint(j)
	}
	lev, osa = levOSAWord(ra, rb, &s.peqA)
	lcs = lcsWord(rb, &s.peqA, &s.cols)
	jw = winkler(jaroWord(ra, rb, &s.peqB), ra, rb)
	dl = damerauWord(ra, rb, s)
	for _, r := range ra {
		s.peqA[r] = 0
	}
	for _, r := range rb {
		s.peqB[r] = 0
	}
	return lev, osa, dl, lcs, jw
}

// byMaxLen is normalizeByMaxLen with the longer length precomputed.
func byMaxLen(d, m int) float64 {
	if m == 0 {
		return 0
	}
	return float64(d) / float64(m)
}

// levOSAWord returns the Levenshtein and OSA distances of two ASCII
// names of at most 64 runes, in one bit-vector pass over rb with ra as
// the pattern (peqA holds its match masks). For each column it keeps
// the vertical deltas of the pattern's DP column as bit vectors (vp: +1,
// vn: −1) and tracks the bottom cell's value; the OSA pass also keeps
// the previous column's diagonal-zero vector d0 and match mask to find
// transpositions (Hyyrö 2003).
func levOSAWord(ra, rb []rune, peqA *[128]uint64) (lev, osa int) {
	la, lb := len(ra), len(rb)
	if la == 0 {
		return lb, lb
	}
	if lb == 0 {
		return la, la
	}
	top := uint(la - 1)
	lev, osa = la, la
	vp, vn := ^uint64(0), uint64(0)
	ovp, ovn, od0, prevEq := ^uint64(0), uint64(0), uint64(0), uint64(0)
	for _, r := range rb {
		eq := peqA[r]

		d0 := (((eq & vp) + vp) ^ vp) | eq | vn
		hp := vn | ^(d0 | vp)
		hn := d0 & vp
		lev += int(hp>>top&1) - int(hn>>top&1)
		hp = hp<<1 | 1 // row 0 of the DP grows by one per column
		hn <<= 1
		vp = hn | ^(d0 | hp)
		vn = hp & d0

		tr := ((^od0 & eq) << 1) & prevEq
		od0 = (((eq & ovp) + ovp) ^ ovp) | eq | ovn | tr
		hp = ovn | ^(od0 | ovp)
		hn = od0 & ovp
		osa += int(hp>>top&1) - int(hn>>top&1)
		hp = hp<<1 | 1
		hn <<= 1
		ovp = hn | ^(od0 | hp)
		ovn = hp & od0
		prevEq = eq
	}
	return lev, osa
}

// lcsWord returns the length of the longest common substring of an
// ASCII pattern of at most 64 runes (peqA holds its match masks) and rb.
// Level k keeps, per column j, the rows i where a common substring of
// length k ends at (i, j): level 1 is peqA[rb[j]], and level k+1 is
// level k of column j−1 shifted down one row and masked by the match.
// The answer is the last non-empty level, after LCS+1 passes over rb.
func lcsWord(rb []rune, peqA *[128]uint64, cols *[maxWordRunes]uint64) int {
	found := uint64(0)
	for j, r := range rb {
		cols[j] = peqA[r]
		found |= cols[j]
	}
	best := 0
	for found != 0 {
		best++
		found = 0
		for j := len(rb) - 1; j > 0; j-- {
			cols[j] = cols[j-1] << 1 & peqA[rb[j]]
			found |= cols[j]
		}
		cols[0] = 0
	}
	return best
}

// jaroWord is Jaro for two ASCII names of at most 64 runes: the same
// greedy matching, with rb's match masks (peqB) so each rune of ra finds
// the first unmatched partner in its window with one trailing-zero
// count, and the same transposition count and arithmetic.
func jaroWord(ra, rb []rune, peqB *[128]uint64) float64 {
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := max2(la, lb)/2 - 1
	if window < 0 {
		window = 0
	}
	var fa, fb uint64 // matched positions of ra and rb
	matches := 0
	for i, r := range ra {
		lo, hi := max2(0, i-window), min2(lb-1, i+window)
		// Bits lo..hi; empty when lo > hi, as the oracle's loop is.
		in := (uint64(1)<<uint(hi+1) - 1) &^ (uint64(1)<<uint(lo) - 1)
		if c := peqB[r] &^ fb & in; c != 0 {
			fb |= c & -c
			fa |= 1 << uint(i)
			matches++
		}
	}
	if matches == 0 {
		return 0
	}
	// The k-th matched rune of ra pairs with the k-th of rb.
	trans := 0
	for ; fa != 0; fa, fb = fa&(fa-1), fb&(fb-1) {
		if ra[bits.TrailingZeros64(fa)] != rb[bits.TrailingZeros64(fb)] {
			trans++
		}
	}
	m := float64(matches)
	return (m/float64(la) + m/float64(lb) + (m-float64(trans)/2)/m) / 3
}

// damerauWord is DamerauLevenshtein for two ASCII names of at most 64
// runes: the oracle's Lowrance–Wagner table, with the last-occurrence
// alphabet in a [128] array instead of a map and the table in the
// scratch's fixed-size array. Cell (x, y) stores the oracle's value
// less x+y, which turns its four candidates into
//
//	min(e[i][j] + cost − 2, e[i+1][j], e[i][j+1], e[i1][j1] − 3)
//
// so the transposition term needs no arithmetic on i1 and j1. The term
// is taken for every cell: when i1 or j1 is 0 it reads the sentinel row
// or column, so its value is at least inf and it never wins the
// minimum, as the oracle's guarded inf never does. The integers, and so
// the distance, are the oracle's.
func damerauWord(ra, rb []rune, s *EditScratch) int {
	la, lb := len(ra), len(rb)
	if la == 0 {
		return lb
	}
	if lb == 0 {
		return la
	}
	inf := int32(la + lb + 1)
	// Row x+1 holds DP row x and column y+1 DP column y; row and column
	// 0 are the sentinels (inf in the oracle). Row and column 1, the
	// oracle's 0, 1, 2, …, are all −2.
	const w = maxWordRunes + 2
	e := &s.dl
	for y := 0; y <= lb+1; y++ {
		e[y] = inf - int32(y)
		e[w+y] = -2
	}
	e[w] = inf - 1
	last := &s.last
	for i := 1; i <= la; i++ {
		ai := ra[i-1]
		up, cur := i*w, (i+1)*w
		e[cur], e[cur+1] = inf-int32(i+1), -2
		lastCol := 0
		left := int32(-2) // cur[j], carried from the previous column
		for j := 1; j <= lb; j++ {
			bj := rb[j-1]
			cost := int32(1)
			if ai == bj {
				cost = 0
			}
			trans := e[last[bj]*w+lastCol] - 3
			if ai == bj {
				lastCol = j
			}
			// left goes last: it is the only term on the loop-carried
			// chain, so the other three minimise off it.
			v := min(e[up+j]+cost-2, e[up+j+1], trans, left)
			e[cur+j+1] = v
			left = v
		}
		last[ai] = i
	}
	for _, r := range ra {
		last[r] = 0
	}
	return int(e[(la+1)*w+lb+1]) + la + lb + 2
}

// gramDistances returns the normalised q-gram, cosine and Jaccard
// distances of two 3-gram profiles from one merge walk over their
// sorted ids. Counts are integers, so the cosine's dot product and
// norms are exact and equal the oracle's map-order float sums.
func gramDistances(a, b *NameProfile) (qgram, cosine, jaccard float64) {
	ga, gb := a.grams, b.grams
	common, dot, inter := 0, 0, 0
	for i, j := 0, 0; i < len(ga) && j < len(gb); {
		switch x, y := ga[i], gb[j]; {
		case x < y:
			i++
		case x > y:
			j++
		default:
			ca, cb := int(a.counts[i]), int(b.counts[j])
			common += min2(ca, cb)
			dot += ca * cb
			inter++
			i++
			j++
		}
	}
	// Σ|ca−cb| over the union is the two totals less twice the overlap.
	if total := a.total + b.total; total > 0 {
		qgram = float64(total-2*common) / float64(total)
	}
	if len(ga) == 0 && len(gb) == 0 {
		return qgram, 0, 0
	}
	cosine = 1
	if a.total > 0 && b.total > 0 {
		cosine = 1 - float64(dot)/(a.l2*b.l2)
		if cosine < 0 {
			cosine = 0 // clamp float residue, as CosineDistance does
		}
	}
	jaccard = 1 - float64(inter)/float64(len(ga)+len(gb)-inter)
	return qgram, cosine, jaccard
}
