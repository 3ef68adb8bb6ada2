package text

// This file implements the string similarities the AML and SemProp
// baselines call directly (the pair features compute theirs through
// NameDistances). All functions operate on runes, not bytes, so
// multi-byte property names compare correctly.

// LongestCommonSubsequence returns the length of the longest (not
// necessarily contiguous) common subsequence. Used by the AML baseline's
// similarity ensemble.
func LongestCommonSubsequence(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 || len(rb) == 0 {
		return 0
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for i := 1; i <= len(ra); i++ {
		for j := 1; j <= len(rb); j++ {
			if ra[i-1] == rb[j-1] {
				cur[j] = prev[j-1] + 1
			} else if prev[j] >= cur[j-1] {
				cur[j] = prev[j]
			} else {
				cur[j] = cur[j-1]
			}
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// Jaro returns the Jaro similarity in [0, 1].
func Jaro(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
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
	matchA := make([]bool, la)
	matchB := make([]bool, lb)
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
	// Count transpositions among matched characters.
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

// JaroWinkler returns the Jaro–Winkler similarity in [0, 1] with the
// standard prefix scale p = 0.1 and prefix length capped at 4.
func JaroWinkler(a, b string) float64 {
	j := Jaro(a, b)
	ra, rb := []rune(a), []rune(b)
	prefix := 0
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

func min2(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max2(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min3(a, b, c int) int { return min2(min2(a, b), c) }

func min4(a, b, c, d int) int { return min2(min3(a, b, c), d) }
