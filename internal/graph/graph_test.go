package graph

import (
	"fmt"
	"testing"
	"testing/quick"

	"leapme/internal/dataset"
)

func k(s, n string) dataset.Key { return dataset.Key{Source: s, Name: n} }

func triangle() *SimilarityGraph {
	g := New()
	g.AddEdge(k("s1", "a"), k("s2", "b"), 0.9)
	g.AddEdge(k("s2", "b"), k("s3", "c"), 0.8)
	g.AddEdge(k("s1", "a"), k("s3", "c"), 0.7)
	g.AddEdge(k("s1", "x"), k("s2", "y"), 0.6)
	return g
}

func TestGraphBasics(t *testing.T) {
	g := triangle()
	if g.NumNodes() != 5 {
		t.Errorf("nodes = %d", g.NumNodes())
	}
	if g.NumEdges() != 4 {
		t.Errorf("edges = %d", g.NumEdges())
	}
	w, ok := g.Weight(k("s1", "a"), k("s2", "b"))
	if !ok || w != 0.9 {
		t.Errorf("weight = %v, %v", w, ok)
	}
	// Symmetric access.
	w2, _ := g.Weight(k("s2", "b"), k("s1", "a"))
	if w2 != w {
		t.Error("weights not symmetric")
	}
	if _, ok := g.Weight(k("s1", "a"), k("zz", "zz")); ok {
		t.Error("phantom edge")
	}
}

func TestSelfEdgeIgnored(t *testing.T) {
	g := New()
	g.AddEdge(k("s", "a"), k("s", "a"), 1)
	if g.NumEdges() != 0 {
		t.Error("self edge inserted")
	}
}

func TestEdgesDeterministic(t *testing.T) {
	a := triangle().Edges()
	b := triangle().Edges()
	if len(a) != 4 {
		t.Fatalf("edges = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("edge order not deterministic")
		}
	}
}

func TestPrune(t *testing.T) {
	g := triangle().Prune(0.75)
	if g.NumEdges() != 2 {
		t.Errorf("pruned edges = %d, want 2 (0.9 and 0.8)", g.NumEdges())
	}
	if g.NumNodes() != 5 {
		t.Error("prune should keep all nodes")
	}
}

func TestConnectedComponents(t *testing.T) {
	c := triangle().ConnectedComponents()
	if len(c) != 2 {
		t.Fatalf("components = %d, want 2", len(c))
	}
	if len(c[0]) != 3 || len(c[1]) != 2 {
		t.Errorf("component sizes = %d, %d", len(c[0]), len(c[1]))
	}
}

func TestConnectedComponentsChains(t *testing.T) {
	// A path a—b—c—d forms one component even without direct a—d edge.
	g := New()
	g.AddEdge(k("s1", "a"), k("s2", "b"), 1)
	g.AddEdge(k("s2", "b"), k("s3", "c"), 1)
	g.AddEdge(k("s3", "c"), k("s4", "d"), 1)
	c := g.ConnectedComponents()
	if len(c) != 1 || len(c[0]) != 4 {
		t.Errorf("clustering = %v", c)
	}
}

func TestStarClustering(t *testing.T) {
	c := triangle().StarClustering()
	// The triangle nodes form one star; x—y another.
	if len(c) != 2 {
		t.Fatalf("stars = %d: %v", len(c), c)
	}
}

func TestStarClusteringHub(t *testing.T) {
	// A hub with 3 satellites: hub has the highest degree, so one star.
	g := New()
	hub := k("s0", "hub")
	for i, s := range []string{"s1", "s2", "s3"} {
		g.AddEdge(hub, k(s, "sat"), 0.5+float64(i)*0.1)
	}
	c := g.StarClustering()
	if len(c) != 1 || len(c[0]) != 4 {
		t.Errorf("clustering = %v", c)
	}
}

func TestCorrelationClustering(t *testing.T) {
	// Chain with a weak middle link: correlation clustering with a high
	// threshold should split where components would merge.
	g := New()
	g.AddEdge(k("s1", "a"), k("s2", "b"), 0.95)
	g.AddEdge(k("s2", "b"), k("s3", "c"), 0.2) // weak
	g.AddEdge(k("s3", "c"), k("s4", "d"), 0.9)
	cc := g.ConnectedComponents()
	if len(cc) != 1 {
		t.Fatalf("components = %d", len(cc))
	}
	corr := g.CorrelationClustering(0.5)
	if len(corr) != 2 {
		t.Fatalf("correlation clusters = %d: %v", len(corr), corr)
	}
}

func TestClusteringPairs(t *testing.T) {
	c := Clustering{{k("s1", "a"), k("s2", "b"), k("s3", "c")}}
	pairs := c.Pairs()
	if len(pairs) != 3 {
		t.Errorf("pairs = %d, want 3", len(pairs))
	}
	// Same-source members yield no pair.
	c = Clustering{{k("s1", "a"), k("s1", "b")}}
	if len(c.Pairs()) != 0 {
		t.Error("same-source pair emitted")
	}
}

func TestPairwiseQuality(t *testing.T) {
	truth := []dataset.Pair{
		{A: k("s1", "a"), B: k("s2", "b")},
		{A: k("s1", "a"), B: k("s3", "c")},
		{A: k("s2", "b"), B: k("s3", "c")},
	}
	perfect := Clustering{{k("s1", "a"), k("s2", "b"), k("s3", "c")}}
	p, r, f1 := perfect.PairwiseQuality(truth)
	if p != 1 || r != 1 || f1 != 1 {
		t.Errorf("perfect clustering: P=%v R=%v F1=%v", p, r, f1)
	}

	partial := Clustering{{k("s1", "a"), k("s2", "b")}, {k("s3", "c")}}
	p, r, _ = partial.PairwiseQuality(truth)
	if p != 1 {
		t.Errorf("partial precision = %v", p)
	}
	if r < 0.3 || r > 0.34 {
		t.Errorf("partial recall = %v, want 1/3", r)
	}

	empty := Clustering{}
	p, r, f1 = empty.PairwiseQuality(truth)
	if p != 0 || r != 0 || f1 != 0 {
		t.Errorf("empty clustering quality = %v %v %v", p, r, f1)
	}
	p, r, f1 = empty.PairwiseQuality(nil)
	if p != 1 || r != 1 || f1 != 1 {
		t.Errorf("empty-vs-empty quality = %v %v %v", p, r, f1)
	}
}

// TestClusteringsArePartitions: every clustering scheme must assign every
// node to exactly one cluster — no losses, no duplicates — on randomly
// shaped graphs.
func TestClusteringsArePartitions(t *testing.T) {
	f := func(edges [][3]uint8) bool {
		g := New()
		// Always include some isolated nodes.
		g.AddNode(k("iso", "a"))
		g.AddNode(k("iso", "b"))
		for _, e := range edges {
			a := k("s"+string(rune('0'+e[0]%5)), "p"+string(rune('a'+e[1]%10)))
			b := k("s"+string(rune('0'+e[1]%5)), "p"+string(rune('a'+e[2]%10)))
			g.AddEdge(a, b, float64(e[2]%100)/100)
		}
		for _, clusters := range []Clustering{
			g.ConnectedComponents(),
			g.StarClustering(),
			g.CorrelationClustering(0.5),
		} {
			seen := map[dataset.Key]int{}
			for _, c := range clusters {
				for _, key := range c {
					seen[key]++
				}
			}
			if len(seen) != g.NumNodes() {
				return false
			}
			for _, n := range seen {
				if n != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// tieGraph's two top nodes tie on weighted degree in some summation
// orders only: B's 0.25 + 0.35 is 0.6, and A's weights 0.2, 0.3 and 0.1
// sum to 0.6 in two of their six orders and to one ulp more in the other
// four.
func tieGraph() *SimilarityGraph {
	g := New()
	g.AddEdge(k("s1", "B"), k("s2", "X"), 0.25)
	g.AddEdge(k("s1", "B"), k("s3", "V"), 0.35)
	g.AddEdge(k("s1", "A"), k("s2", "Y"), 0.2)
	g.AddEdge(k("s1", "A"), k("s3", "Z"), 0.3)
	g.AddEdge(k("s1", "A"), k("s2", "X"), 0.1)
	return g
}

// TestClusteringDeterminism rebuilds each graph 100 times. Go randomises
// map iteration per range, so a scheme that read the adjacency maps in
// their own order could return more than one clustering.
func TestClusteringDeterminism(t *testing.T) {
	graphs := []struct {
		name  string
		build func() *SimilarityGraph
	}{{"triangle", triangle}, {"tie", tieGraph}}
	schemes := []struct {
		name string
		run  func(*SimilarityGraph) Clustering
	}{
		{"star", (*SimilarityGraph).StarClustering},
		{"correlation(0)", func(g *SimilarityGraph) Clustering { return g.CorrelationClustering(0) }},
		{"correlation(0.5)", func(g *SimilarityGraph) Clustering { return g.CorrelationClustering(0.5) }},
	}
	for _, gr := range graphs {
		for _, sc := range schemes {
			seen := map[string]int{}
			for i := 0; i < 100; i++ {
				seen[fmt.Sprint(sc.run(gr.build()))]++
			}
			if len(seen) != 1 {
				t.Errorf("%s, %s: %d distinct clusterings over 100 rebuilds: %v", gr.name, sc.name, len(seen), seen)
			}
		}
	}
}
