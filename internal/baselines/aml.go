package baselines

import (
	"leapme/internal/dataset"
	"leapme/internal/text"
)

// AML reimplements the lexical matching core of AgreementMakerLight
// (Faria et al.): several string matchers vote on each candidate pair and
// the ensemble similarity must clear a conservative threshold. The
// original further applies a selection step that keeps, per property, only
// matches within a margin of its best match — reproduced here — which is
// why AML's profile is very high precision at moderate recall.
type AML struct{}

const (
	// amlThreshold is the ensemble acceptance threshold. AML's published
	// configuration leans on high thresholds for its string matchers;
	// 0.9 reproduces its very-high-precision / moderate-recall profile.
	amlThreshold = 0.9
	// amlSelectionMargin keeps matches within this margin of a
	// property's best match.
	amlSelectionMargin = 0.05
)

// NewAML returns AML.
func NewAML() *AML { return &AML{} }

// Name implements Matcher.
func (a *AML) Name() string { return "AML" }

// Match implements Matcher.
func (a *AML) Match(in Input) ([]Match, error) {
	type cand struct {
		pair  dataset.Pair
		score float64
	}
	var cands []cand
	best := map[dataset.Key]float64{}
	norm := make(map[dataset.Key]string, len(in.Props))
	toks := make(map[dataset.Key][]string, len(in.Props))
	for _, p := range in.Props {
		norm[p.Key()] = text.NormalizeName(p.Name)
		toks[p.Key()] = text.Tokenize(p.Name)
	}
	dataset.CrossSourcePairs(in.Props, func(p, q dataset.Property) bool {
		s := amlSimilarity(norm[p.Key()], norm[q.Key()], toks[p.Key()], toks[q.Key()])
		if s < amlThreshold {
			return true
		}
		pair := dataset.Pair{A: p.Key(), B: q.Key()}.Canonical()
		cands = append(cands, cand{pair: pair, score: s})
		if s > best[pair.A] {
			best[pair.A] = s
		}
		if s > best[pair.B] {
			best[pair.B] = s
		}
		return true
	})
	var out []Match
	for _, c := range cands {
		if c.score < best[c.pair.A]-amlSelectionMargin && c.score < best[c.pair.B]-amlSelectionMargin {
			continue // dominated on both sides: AML's selector drops it
		}
		out = append(out, Match{Pair: c.pair, Score: c.score})
	}
	return out, nil
}

// amlSimilarity is the ensemble: the maximum of the word-overlap (token
// Jaccard), Jaro–Winkler, normalised longest-common-subsequence and
// Monge–Elkan similarities, mirroring AML's combination of its String and
// Word matchers under a "max" aggregation.
func amlSimilarity(na, nb string, ta, tb []string) float64 {
	jac := tokenJaccard(ta, tb)
	jw := text.JaroWinkler(na, nb)
	lcs := lcsSimilarity(na, nb)
	me := text.MongeElkanSym(ta, tb, text.JaroWinkler)
	s := jac
	if jw > s {
		s = jw
	}
	if lcs > s {
		s = lcs
	}
	if me > s {
		s = me
	}
	return s
}

func tokenJaccard(a, b []string) float64 {
	sa := map[string]bool{}
	for _, t := range a {
		sa[t] = true
	}
	sb := map[string]bool{}
	for _, t := range b {
		sb[t] = true
	}
	if len(sa) == 0 && len(sb) == 0 {
		return 0
	}
	inter := 0
	for t := range sa {
		if sb[t] {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	return float64(inter) / float64(union)
}

func lcsSimilarity(a, b string) float64 {
	la, lb := len([]rune(a)), len([]rune(b))
	if la == 0 || lb == 0 {
		return 0
	}
	l := text.LongestCommonSubsequence(a, b)
	m := la
	if lb > m {
		m = lb
	}
	return float64(l) / float64(m)
}
