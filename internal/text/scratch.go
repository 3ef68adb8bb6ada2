package text

// This file holds the scratch-backed rune DPs of the edit-distance
// family. NameDistances (profile.go) runs them for every pair outside
// its word-size path: a non-ASCII name, or a name longer than 64 runes.
// Each takes pre-converted rune slices and an EditScratch that owns
// every buffer, so a warm caller computes the distances with zero heap
// allocations.
//
// Equivalence contract: for any inputs, fRunes(ra, rb, s) returns
// exactly the same value as F(string(ra), string(rb)) — same algorithm,
// same arithmetic, only the buffer lifetimes differ.
// TestNameDistancesMatchOracle cross-checks NameDistances, and with it
// these DPs, against the string functions bit for bit.

// EditScratch owns the working buffers of NameDistances. The zero value
// is ready to use; buffers grow on demand and are retained for reuse.
// An EditScratch is not safe for concurrent use — each scoring worker
// owns one.
type EditScratch struct {
	r0, r1, r2 []int        // rolling DP rows
	d          []int        // Damerau–Levenshtein full table
	lastRow    map[rune]int // Damerau–Levenshtein alphabet index
	ma, mb     []bool       // Jaro match flags

	// Tables of the word-size path (ASCII names of up to 64 runes).
	// peqA and peqB (each name's match masks) and last
	// (Damerau–Levenshtein's last-occurrence row) are all zero between
	// calls; cols holds lcsWord's levels and dl the Damerau–Levenshtein
	// table.
	peqA, peqB [128]uint64
	last       [128]int
	cols       [maxWordRunes]uint64
	dl         [(maxWordRunes + 2) * (maxWordRunes + 2)]int32
}

// rows3 returns three DP rows of length n, growing the retained buffers
// as needed. Contents are unspecified; callers initialise what they read.
func (s *EditScratch) rows3(n int) (r0, r1, r2 []int) {
	if cap(s.r0) < n {
		s.r0 = make([]int, n)
		s.r1 = make([]int, n)
		s.r2 = make([]int, n)
	}
	return s.r0[:n], s.r1[:n], s.r2[:n]
}

// table returns a DP table of length n with unspecified contents.
func (s *EditScratch) table(n int) []int {
	if cap(s.d) < n {
		s.d = make([]int, n)
	}
	return s.d[:n]
}

// flags returns two zeroed bool rows of lengths na and nb.
func (s *EditScratch) flags(na, nb int) (ma, mb []bool) {
	if cap(s.ma) < na {
		s.ma = make([]bool, na)
	}
	if cap(s.mb) < nb {
		s.mb = make([]bool, nb)
	}
	ma, mb = s.ma[:na], s.mb[:nb]
	for i := range ma {
		ma[i] = false
	}
	for i := range mb {
		mb[i] = false
	}
	return ma, mb
}

// alphabet returns the cleared last-occurrence map.
func (s *EditScratch) alphabet() map[rune]int {
	if s.lastRow == nil {
		s.lastRow = make(map[rune]int, 32)
	}
	clear(s.lastRow)
	return s.lastRow
}

// levenshteinRunes is Levenshtein over pre-converted rune slices.
func levenshteinRunes(ra, rb []rune, s *EditScratch) int {
	la, lb := len(ra), len(rb)
	if la == 0 {
		return lb
	}
	if lb == 0 {
		return la
	}
	prev, cur, _ := s.rows3(lb + 1)
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

// osaRunes is OSA over pre-converted rune slices.
func osaRunes(ra, rb []rune, s *EditScratch) int {
	la, lb := len(ra), len(rb)
	if la == 0 {
		return lb
	}
	if lb == 0 {
		return la
	}
	prev2, prev, cur := s.rows3(lb + 1)
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

// damerauLevenshteinRunes is DamerauLevenshtein over pre-converted rune
// slices, with the alphabet in a map since the runes may be any.
func damerauLevenshteinRunes(ra, rb []rune, s *EditScratch) int {
	la, lb := len(ra), len(rb)
	if la == 0 {
		return lb
	}
	if lb == 0 {
		return la
	}
	inf := la + lb + 1
	w := lb + 2
	d := s.table((la + 2) * w)
	d[0] = inf
	for i := 0; i <= la; i++ {
		d[(i+1)*w] = inf
		d[(i+1)*w+1] = i
	}
	for j := 0; j <= lb; j++ {
		d[j+1] = inf
		d[w+j+1] = j
	}
	lastRow := s.alphabet()
	for i := 1; i <= la; i++ {
		lastCol := 0
		for j := 1; j <= lb; j++ {
			i1 := lastRow[rb[j-1]]
			j1 := lastCol
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
				lastCol = j
			}
			sub := d[i*w+j] + cost
			ins := d[(i+1)*w+j] + 1
			del := d[i*w+j+1] + 1
			trans := inf
			if i1 > 0 && j1 > 0 {
				trans = d[i1*w+j1] + (i - i1 - 1) + 1 + (j - j1 - 1)
			}
			d[(i+1)*w+j+1] = min4(sub, ins, del, trans)
		}
		lastRow[ra[i-1]] = i
	}
	return d[(la+1)*w+lb+1]
}

// longestCommonSubstringRunes is LongestCommonSubstring over
// pre-converted rune slices.
func longestCommonSubstringRunes(ra, rb []rune, s *EditScratch) int {
	if len(ra) == 0 || len(rb) == 0 {
		return 0
	}
	prev, cur, _ := s.rows3(len(rb) + 1)
	// Both rows start zeroed in the allocating original; after the first
	// swap the old cur becomes prev, so its column 0 (never written by
	// the loop) must be 0 too.
	for j := range prev {
		prev[j] = 0
	}
	cur[0] = 0
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

// jaroRunes is Jaro over pre-converted rune slices.
func jaroRunes(ra, rb []rune, s *EditScratch) float64 {
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
	matchA, matchB := s.flags(la, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := max2(0, i-window)
		hi := min2(lb-1, i+window)
		for j := lo; j <= hi; j++ {
			if !matchB[j] && ra[i] == rb[j] {
				matchA[i] = true
				matchB[j] = true
				matches++
				break
			}
		}
	}
	if matches == 0 {
		return 0
	}
	trans := 0
	j := 0
	for i := 0; i < la; i++ {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if ra[i] != rb[j] {
			trans++
		}
		j++
	}
	m := float64(matches)
	return (m/float64(la) + m/float64(lb) + (m-float64(trans)/2)/m) / 3
}

// jaroWinklerRunes is JaroWinkler over pre-converted rune slices.
func jaroWinklerRunes(ra, rb []rune, s *EditScratch) float64 {
	return winkler(jaroRunes(ra, rb, s), ra, rb)
}

// winkler is JaroWinkler's prefix boost of the Jaro similarity j.
func winkler(j float64, ra, rb []rune) float64 {
	prefix := 0
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}
