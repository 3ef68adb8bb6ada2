package baselines

import (
	"sort"

	"leapme/internal/dataset"
	"leapme/internal/text"
)

// FCAMap reimplements the lexical core of FCA-Map (Chang et al.): a formal
// context is built with properties as objects and their name tokens as
// attributes; the concept lattice is computed with the NextClosure
// algorithm; and matches are read off concepts whose intent (shared token
// set) covers enough of both properties' names. Token-set containment is a
// strict criterion, giving FCA-Map its near-perfect precision and limited
// recall.
type FCAMap struct {
	// MinCover is the fraction of each property's tokens that the shared
	// concept intent must cover (default 1: identical token sets, the
	// strictest and highest-precision setting).
	MinCover float64
	// MaxConcepts bounds lattice size as a safety valve (default 100000).
	MaxConcepts int
}

// NewFCAMap returns FCA-Map with default settings.
func NewFCAMap() *FCAMap { return &FCAMap{MinCover: 1, MaxConcepts: 100000} }

// Name implements Matcher.
func (f *FCAMap) Name() string { return "FCA-Map" }

// Match implements Matcher.
func (f *FCAMap) Match(in Input) ([]Match, error) {
	minCover := f.MinCover
	if minCover <= 0 {
		minCover = 1
	}
	maxConcepts := f.MaxConcepts
	if maxConcepts <= 0 {
		maxConcepts = 100000
	}

	// Formal context: object = property index, attribute = token id.
	tokenIDs := map[string]int{}
	var objects [][]int // sorted token ids per property
	tokensOf := make([]map[int]bool, len(in.Props))
	for i, p := range in.Props {
		set := map[int]bool{}
		for _, tok := range text.Tokenize(p.Name) {
			id, ok := tokenIDs[tok]
			if !ok {
				id = len(tokenIDs)
				tokenIDs[tok] = id
			}
			set[id] = true
		}
		tokensOf[i] = set
		ids := make([]int, 0, len(set))
		for id := range set {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		objects = append(objects, ids)
	}

	// Attribute → objects inverted index.
	attrObjs := make([][]int, len(tokenIDs))
	for oi, ids := range objects {
		for _, id := range ids {
			attrObjs[id] = append(attrObjs[id], oi)
		}
	}

	concepts := f.lattice(objects, attrObjs, maxConcepts)

	// Extract matches: two properties of different sources in one concept
	// extent whose intent covers ≥ minCover of each property's tokens.
	seen := map[dataset.Pair]float64{}
	for _, c := range concepts {
		if len(c.intent) == 0 || len(c.extent) < 2 {
			continue
		}
		for i := 0; i < len(c.extent); i++ {
			for j := i + 1; j < len(c.extent); j++ {
				pa, pb := in.Props[c.extent[i]], in.Props[c.extent[j]]
				if pa.Source == pb.Source {
					continue
				}
				ca := cover(c.intent, tokensOf[c.extent[i]])
				cb := cover(c.intent, tokensOf[c.extent[j]])
				score := ca
				if cb < score {
					score = cb
				}
				if score < minCover {
					continue
				}
				pair := dataset.Pair{A: pa.Key(), B: pb.Key()}.Canonical()
				if score > seen[pair] {
					seen[pair] = score
				}
			}
		}
	}
	out := make([]Match, 0, len(seen))
	for pair, score := range seen {
		//lint:allow determinism the pair sort below is a total order over the distinct map keys, so map order never reaches the result
		out = append(out, Match{Pair: pair, Score: score})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pair, out[j].Pair
		if a.A != b.A {
			return a.A.Source < b.A.Source || (a.A.Source == b.A.Source && a.A.Name < b.A.Name)
		}
		return a.B.Source < b.B.Source || (a.B.Source == b.B.Source && a.B.Name < b.B.Name)
	})
	return out, nil
}

type concept struct {
	extent []int // object indices
	intent []int // attribute ids
}

// lattice computes formal concepts object-wise: it starts from per-object
// closures and intersects until a fixpoint — a standard bounded variant of
// concept enumeration that yields every concept reachable from object
// intents, which covers all concepts with non-empty extent.
func (f *FCAMap) lattice(objects [][]int, attrObjs [][]int, maxConcepts int) []concept {
	seen := map[string]bool{}
	var out []concept
	// Worklist of intents (as sorted id slices).
	var work [][]int
	push := func(intent []int) {
		k := intKey(intent)
		if !seen[k] {
			seen[k] = true
			work = append(work, intent)
		}
	}
	for _, ids := range objects {
		push(ids)
	}
	for len(work) > 0 && len(out) < maxConcepts {
		intent := work[len(work)-1]
		work = work[:len(work)-1]
		extent := objectsWithAll(intent, attrObjs, len(objects))
		if len(extent) == 0 {
			continue
		}
		closed := commonAttrs(extent, objects)
		k := intKey(closed)
		if !seen[k] {
			seen[k] = true
		}
		out = append(out, concept{extent: extent, intent: closed})
		// Generate successors by intersecting with further object intents.
		for _, ids := range objects {
			inter := intersect(closed, ids)
			if len(inter) > 0 && len(inter) < len(closed) {
				push(inter)
			}
		}
	}
	return out
}

func objectsWithAll(intent []int, attrObjs [][]int, numObjects int) []int {
	if len(intent) == 0 {
		return nil
	}
	counts := map[int]int{}
	for _, a := range intent {
		for _, o := range attrObjs[a] {
			counts[o]++
		}
	}
	var out []int
	for o, c := range counts {
		if c == len(intent) {
			out = append(out, o)
		}
	}
	sort.Ints(out)
	return out
}

func commonAttrs(extent []int, objects [][]int) []int {
	if len(extent) == 0 {
		return nil
	}
	common := objects[extent[0]]
	for _, o := range extent[1:] {
		common = intersect(common, objects[o])
		if len(common) == 0 {
			break
		}
	}
	return common
}

// intersect merges two sorted int slices.
func intersect(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}

func intKey(ids []int) string {
	b := make([]byte, 0, len(ids)*3)
	for _, id := range ids {
		b = append(b, byte(id), byte(id>>8), byte(id>>16))
	}
	return string(b)
}

func cover(intent []int, tokens map[int]bool) float64 {
	if len(tokens) == 0 {
		return 0
	}
	n := 0
	for _, a := range intent {
		if tokens[a] {
			n++
		}
	}
	return float64(n) / float64(len(tokens))
}
