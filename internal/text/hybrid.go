package text

// Hybrid (token-level × character-level) similarities, used by matcher
// ensembles such as AML's word matchers. They compare token multisets but
// score token pairs with a character-level inner similarity, so
// "camera resolution" ~ "camera resolutions" scores high even though the
// token sets differ.

// MongeElkan returns the Monge–Elkan similarity of a against b under the
// given inner token similarity: the average, over tokens of a, of the
// best inner similarity against any token of b. It is asymmetric; use
// MongeElkanSym for the symmetrised version.
func MongeElkan(a, b []string, inner func(x, y string) float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	var sum float64
	for _, ta := range a {
		best := 0.0
		for _, tb := range b {
			if s := inner(ta, tb); s > best {
				best = s
			}
		}
		sum += best
	}
	return sum / float64(len(a))
}

// MongeElkanSym is the symmetrised Monge–Elkan similarity:
// the mean of both directions.
func MongeElkanSym(a, b []string, inner func(x, y string) float64) float64 {
	return (MongeElkan(a, b, inner) + MongeElkan(b, a, inner)) / 2
}
