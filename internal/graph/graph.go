// Package graph implements the similarity graph LEAPME emits and the
// property-clustering post-processing step the paper names as future work
// ("we plan to evaluate different methods for deriving clusters of
// equivalent properties from the match results"): connected components,
// star clustering, and greedy correlation clustering, plus pairwise
// cluster-quality metrics.
package graph

import (
	"fmt"
	"sort"

	"leapme/internal/dataset"
)

// Edge is a weighted undirected edge between two properties.
type Edge struct {
	A, B   dataset.Key
	Weight float64
}

// SimilarityGraph is an undirected weighted graph over property keys.
// The zero value is not usable; call New.
type SimilarityGraph struct {
	nodes map[dataset.Key]int // key → dense index
	keys  []dataset.Key
	adj   []map[int]float64
}

// New returns an empty similarity graph.
func New() *SimilarityGraph {
	return &SimilarityGraph{nodes: map[dataset.Key]int{}}
}

// AddNode ensures k is present and returns its dense index.
func (g *SimilarityGraph) AddNode(k dataset.Key) int {
	if i, ok := g.nodes[k]; ok {
		return i
	}
	i := len(g.keys)
	g.nodes[k] = i
	g.keys = append(g.keys, k)
	g.adj = append(g.adj, map[int]float64{})
	return i
}

// AddEdge inserts (or overwrites) the undirected edge a—b with the given
// weight. Self-edges are ignored.
func (g *SimilarityGraph) AddEdge(a, b dataset.Key, weight float64) {
	if a == b {
		return
	}
	ia, ib := g.AddNode(a), g.AddNode(b)
	g.adj[ia][ib] = weight
	g.adj[ib][ia] = weight
}

// NumNodes returns the node count.
func (g *SimilarityGraph) NumNodes() int { return len(g.keys) }

// NumEdges returns the undirected edge count.
func (g *SimilarityGraph) NumEdges() int {
	total := 0
	for _, m := range g.adj {
		total += len(m)
	}
	return total / 2
}

// Weight returns the edge weight and whether the edge exists.
func (g *SimilarityGraph) Weight(a, b dataset.Key) (float64, bool) {
	ia, ok := g.nodes[a]
	if !ok {
		return 0, false
	}
	ib, ok := g.nodes[b]
	if !ok {
		return 0, false
	}
	w, ok := g.adj[ia][ib]
	return w, ok
}

// Edges returns all edges sorted deterministically (by key order).
func (g *SimilarityGraph) Edges() []Edge {
	var out []Edge
	for ia, m := range g.adj {
		for ib, w := range m {
			if ia < ib {
				//lint:allow determinism the (A, B) key sort below is a total order over distinct edges, so map order never reaches the result
				out = append(out, Edge{A: g.keys[ia], B: g.keys[ib], Weight: w})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return lessKey(out[i].A, out[j].A)
		}
		return lessKey(out[i].B, out[j].B)
	})
	return out
}

// Prune returns a copy with only edges of weight ≥ minWeight.
func (g *SimilarityGraph) Prune(minWeight float64) *SimilarityGraph {
	out := New()
	for _, k := range g.keys {
		out.AddNode(k)
	}
	for ia, m := range g.adj {
		for ib, w := range m {
			if ia < ib && w >= minWeight {
				out.AddEdge(g.keys[ia], g.keys[ib], w)
			}
		}
	}
	return out
}

// Keys returns all node keys in insertion order. The slice must not be
// modified.
func (g *SimilarityGraph) Keys() []dataset.Key { return g.keys }

func lessKey(a, b dataset.Key) bool {
	if a.Source != b.Source {
		return a.Source < b.Source
	}
	return a.Name < b.Name
}

// String summarises the graph.
func (g *SimilarityGraph) String() string {
	return fmt.Sprintf("SimilarityGraph(%d nodes, %d edges)", g.NumNodes(), g.NumEdges())
}
