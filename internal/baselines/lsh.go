package baselines

import (
	"hash/fnv"
	"sort"

	"leapme/internal/dataset"
	"leapme/internal/text"
)

// LSH reimplements the instance-based matcher of Duan et al. ("Instance-
// based matching of large ontologies using locality-sensitive hashing"):
// each property is represented by the token set of its instance values,
// summarised as a MinHash signature; banding groups properties whose
// bands collide into candidate pairs; candidates are accepted when their
// estimated Jaccard similarity clears a threshold. The paper runs it
// "using minhash with a band size of 1" — every single signature row is
// its own band, the most recall-friendly banding.
type LSH struct{}

// LSH's configuration in the paper's evaluation.
const (
	lshHashes    = 64   // MinHash signature length
	lshBandSize  = 1    // rows per band (the paper's band size)
	lshThreshold = 0.5  // on the estimated Jaccard similarity
	lshMaxTokens = 4096 // cap on a property's value-token set
	lshSeed      = 1    // salts the hash family
)

// NewLSH returns LSH configured as in the paper's evaluation.
func NewLSH() *LSH { return &LSH{} }

// Name implements Matcher.
func (l *LSH) Name() string { return "LSH" }

// Match implements Matcher.
func (l *LSH) Match(in Input) ([]Match, error) {
	// MinHash signatures over instance-value token sets.
	sigs := make([][]uint64, len(in.Props))
	empty := make([]bool, len(in.Props))
	for i, p := range in.Props {
		tokens := valueTokens(in.Values[p.Key()])
		if len(tokens) == 0 {
			empty[i] = true
			continue
		}
		sigs[i] = minhash(tokens, lshHashes, lshSeed)
	}

	// Banding: group properties by each band's hashed rows.
	candidates := map[[2]int]bool{}
	for bi := 0; bi < lshHashes/lshBandSize; bi++ {
		buckets := map[uint64][]int{}
		for i := range in.Props {
			if empty[i] {
				continue
			}
			key := bandKey(sigs[i][bi*lshBandSize : (bi+1)*lshBandSize])
			buckets[key] = append(buckets[key], i)
		}
		for _, members := range buckets {
			if len(members) < 2 {
				continue
			}
			for x := 0; x < len(members); x++ {
				for y := x + 1; y < len(members); y++ {
					i, j := members[x], members[y]
					if in.Props[i].Source == in.Props[j].Source {
						continue
					}
					if i > j {
						i, j = j, i
					}
					candidates[[2]int{i, j}] = true
				}
			}
		}
	}

	// Verify candidates by estimated Jaccard (signature agreement rate).
	var out []Match
	for c := range candidates {
		i, j := c[0], c[1]
		agree := 0
		for k := 0; k < lshHashes; k++ {
			if sigs[i][k] == sigs[j][k] {
				agree++
			}
		}
		est := float64(agree) / lshHashes
		if est >= lshThreshold {
			//lint:allow determinism the pair sort below is a total order over the distinct candidate pairs, so map order never reaches the result
			out = append(out, Match{
				Pair:  dataset.Pair{A: in.Props[i].Key(), B: in.Props[j].Key()}.Canonical(),
				Score: est,
			})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		pa, pb := out[a].Pair, out[b].Pair
		if pa.A != pb.A {
			if pa.A.Source != pb.A.Source {
				return pa.A.Source < pb.A.Source
			}
			return pa.A.Name < pb.A.Name
		}
		if pa.B.Source != pb.B.Source {
			return pa.B.Source < pb.B.Source
		}
		return pa.B.Name < pb.B.Name
	})
	return out, nil
}

// valueTokens builds the token set of a property's values, capped at
// lshMaxTokens tokens.
func valueTokens(values []string) map[string]bool {
	set := map[string]bool{}
	for _, v := range values {
		for _, tok := range text.Tokenize(v) {
			set[tok] = true
			if len(set) >= lshMaxTokens {
				return set
			}
		}
	}
	return set
}

// minhash computes an h-row MinHash signature using salted FNV hashes.
func minhash(tokens map[string]bool, h int, seed uint64) []uint64 {
	sig := make([]uint64, h)
	for i := range sig {
		sig[i] = ^uint64(0)
	}
	// Sorted iteration for determinism.
	sorted := make([]string, 0, len(tokens))
	for t := range tokens {
		sorted = append(sorted, t)
	}
	sort.Strings(sorted)
	for _, t := range sorted {
		base := fnvHash(t)
		for i := 0; i < h; i++ {
			// A cheap but well-mixed hash family: multiply-shift over the
			// base hash with per-row odd constants.
			a := 2*uint64(i)*0x9E3779B97F4A7C15 + 1 + seed
			v := (base ^ a) * 0xBF58476D1CE4E5B9
			v ^= v >> 31
			if v < sig[i] {
				sig[i] = v
			}
		}
	}
	return sig
}

func fnvHash(s string) uint64 {
	f := fnv.New64a()
	f.Write([]byte(s))
	return f.Sum64()
}

func bandKey(rows []uint64) uint64 {
	var k uint64 = 1469598103934665603
	for _, r := range rows {
		k ^= r
		k *= 1099511628211
	}
	return k
}
