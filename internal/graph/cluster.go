package graph

import (
	"sort"

	"leapme/internal/dataset"
)

// Cluster is a set of property keys believed to denote the same reference
// property.
type Cluster []dataset.Key

// Clustering is a partition of (a subset of) the graph's nodes.
type Clustering []Cluster

// ConnectedComponents clusters nodes by connectivity: any path of edges
// puts two properties in the same cluster. It is the cheapest scheme and
// the most recall-oriented: one spurious edge merges two clusters.
func (g *SimilarityGraph) ConnectedComponents() Clustering {
	parent := make([]int, len(g.keys))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for ia, m := range g.adj {
		for ib := range m {
			union(ia, ib)
		}
	}
	groups := make([]Cluster, len(g.keys))
	for i, k := range g.keys {
		r := find(i)
		groups[r] = append(groups[r], k)
	}
	var out Clustering
	for _, cl := range groups {
		if len(cl) > 0 {
			out = append(out, cl)
		}
	}
	return sortClustering(out)
}

// neighbours returns node i's neighbours in ascending index order.
func (g *SimilarityGraph) neighbours(i int) []int {
	nbrs := make([]int, 0, len(g.adj[i]))
	for nb := range g.adj[i] {
		nbrs = append(nbrs, nb)
	}
	sort.Ints(nbrs)
	return nbrs
}

// byDegree returns the nodes by descending weighted degree, ties broken
// by index. Each degree sums the node's weights in ascending neighbour
// order: float addition is not associative, so a sum in map order can
// differ by an ulp between two builds of the same graph and flip a tie.
func (g *SimilarityGraph) byDegree() []int {
	order := make([]int, len(g.keys))
	degree := make([]float64, len(g.keys))
	for i := range g.keys {
		order[i] = i
		for _, nb := range g.neighbours(i) {
			degree[i] += g.adj[i][nb]
		}
	}
	sort.Slice(order, func(a, b int) bool {
		//lint:allow floateq sort tie-break must be an exact total order; a tolerance comparator is not a strict weak ordering
		if degree[order[a]] != degree[order[b]] {
			return degree[order[a]] > degree[order[b]]
		}
		return order[a] < order[b]
	})
	return order
}

// StarClustering repeatedly picks the unassigned node with the highest
// weighted degree as a star centre and assigns its unassigned neighbours
// to it. It is precision-oriented: clusters never span more than one hop
// from the centre.
func (g *SimilarityGraph) StarClustering() Clustering {
	assigned := make([]bool, len(g.keys))
	var out Clustering
	for _, centre := range g.byDegree() {
		if assigned[centre] {
			continue
		}
		cluster := Cluster{g.keys[centre]}
		assigned[centre] = true
		for _, nb := range g.neighbours(centre) {
			if !assigned[nb] {
				assigned[nb] = true
				cluster = append(cluster, g.keys[nb])
			}
		}
		out = append(out, cluster)
	}
	return sortClustering(out)
}

// CorrelationClustering runs the classic greedy pivot algorithm
// (Ailon et al.): process nodes in a deterministic high-degree-first
// order; each unassigned pivot absorbs unassigned neighbours whose edge
// weight is at least minWeight. Unlike connected components it does not
// chain through transitive edges, and unlike star clustering the pivot's
// neighbourhood is filtered by weight.
func (g *SimilarityGraph) CorrelationClustering(minWeight float64) Clustering {
	assigned := make([]bool, len(g.keys))
	var out Clustering
	for _, pivot := range g.byDegree() {
		if assigned[pivot] {
			continue
		}
		assigned[pivot] = true
		cluster := Cluster{g.keys[pivot]}
		for _, nb := range g.neighbours(pivot) {
			if !assigned[nb] && g.adj[pivot][nb] >= minWeight {
				assigned[nb] = true
				cluster = append(cluster, g.keys[nb])
			}
		}
		out = append(out, cluster)
	}
	return sortClustering(out)
}

// Pairs expands a clustering into the set of cross-source property pairs
// it implies (all pairs inside each cluster, canonicalised).
func (c Clustering) Pairs() []dataset.Pair {
	var out []dataset.Pair
	for _, cluster := range c {
		for i := 0; i < len(cluster); i++ {
			for j := i + 1; j < len(cluster); j++ {
				if cluster[i].Source == cluster[j].Source {
					continue
				}
				out = append(out, dataset.Pair{A: cluster[i], B: cluster[j]}.Canonical())
			}
		}
	}
	return out
}

// PairwiseQuality computes the pairwise precision/recall/F1 of a
// clustering against ground-truth matching pairs.
func (c Clustering) PairwiseQuality(truth []dataset.Pair) (precision, recall, f1 float64) {
	truthSet := map[dataset.Pair]bool{}
	for _, p := range truth {
		truthSet[p.Canonical()] = true
	}
	pred := c.Pairs()
	if len(pred) == 0 {
		if len(truthSet) == 0 {
			return 1, 1, 1
		}
		return 0, 0, 0
	}
	tp := 0
	for _, p := range pred {
		if truthSet[p] {
			tp++
		}
	}
	precision = float64(tp) / float64(len(pred))
	if len(truthSet) > 0 {
		recall = float64(tp) / float64(len(truthSet))
	}
	if precision+recall > 0 {
		f1 = 2 * precision * recall / (precision + recall)
	}
	return precision, recall, f1
}

func sortClustering(c Clustering) Clustering {
	for _, cl := range c {
		sort.Slice(cl, func(i, j int) bool { return lessKey(cl[i], cl[j]) })
	}
	sort.Slice(c, func(i, j int) bool {
		if len(c[i]) == 0 || len(c[j]) == 0 {
			return len(c[i]) > len(c[j])
		}
		return lessKey(c[i][0], c[j][0])
	})
	return c
}
