package graph

import (
	"math/rand/v2"
	"testing"
)

// Edge-case coverage for the generators: empty and single-node instances,
// infeasible regular requests, and self-loop rejection across all three
// graph types.

func TestGeneratorsEmpty(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 0))
	for name, g := range map[string]*Graph{
		"NewGraph":          NewGraph(0),
		"RandomGraph":       RandomGraph(0, 0.5, rng),
		"RandomSparseGraph": RandomSparseGraph(0, 10, rng),
		"PathGraph":         PathGraph(0),
		"Complete":          Complete(0),
		"Cycle":             Cycle(0),
	} {
		if g.N() != 0 || g.M() != 0 {
			t.Errorf("%s: want empty graph, got n=%d m=%d", name, g.N(), g.M())
		}
		if g.MaxDeg() != 0 || g.MinDeg() != 0 {
			t.Errorf("%s: degrees of empty graph must be 0", name)
		}
		if comps := g.ConnectedComponents(); len(comps) != 0 {
			t.Errorf("%s: empty graph has %d components", name, len(comps))
		}
		if g.Girth() != 0 || !g.IsForest() {
			t.Errorf("%s: empty graph must be an acyclic forest", name)
		}
	}
	b := NewBipartite(0, 0)
	if b.N() != 0 || b.M() != 0 || b.MinDegU() != 0 || b.Rank() != 0 {
		t.Error("empty bipartite graph has nonzero shape")
	}
	if g := b.AsGraph(); g.N() != 0 {
		t.Error("AsGraph of empty bipartite graph is nonempty")
	}
}

func TestGeneratorsSingleNode(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 0))
	for name, g := range map[string]*Graph{
		"RandomGraph":       RandomGraph(1, 1.0, rng),
		"RandomSparseGraph": RandomSparseGraph(1, 10, rng),
		"PathGraph":         PathGraph(1),
		"Complete":          Complete(1),
	} {
		if g.N() != 1 || g.M() != 0 {
			t.Errorf("%s: want isolated node, got n=%d m=%d", name, g.N(), g.M())
		}
		if g.Deg(0) != 0 || len(g.Neighbors(0)) != 0 {
			t.Errorf("%s: single node must have no neighbors", name)
		}
		if comps := g.ConnectedComponents(); len(comps) != 1 || len(comps[0]) != 1 {
			t.Errorf("%s: want one singleton component, got %v", name, comps)
		}
	}
}

func TestRandomRegularInfeasible(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 0))
	// Odd n*d has no regular graph.
	if _, err := RandomRegular(5, 3, rng); err == nil {
		t.Error("RandomRegular(5, 3): odd degree sum must be rejected")
	}
	// d >= n is impossible in a simple graph.
	if _, err := RandomRegular(4, 4, rng); err == nil {
		t.Error("RandomRegular(4, 4): d >= n must be rejected")
	}
	if _, err := RandomRegular(4, 5, rng); err == nil {
		t.Error("RandomRegular(4, 5): d > n must be rejected")
	}
	// Sanity: a feasible request still works after the rejections above.
	g, err := RandomRegular(8, 3, rng)
	if err != nil {
		t.Fatalf("RandomRegular(8, 3): %v", err)
	}
	for v := 0; v < g.N(); v++ {
		if g.Deg(v) != 3 {
			t.Fatalf("node %d has degree %d, want 3", v, g.Deg(v))
		}
	}
}

func TestSelfLoopRejection(t *testing.T) {
	for _, edges := range [][][2]int{{{1, 1}}, {{-1, 0}}, {{0, 3}}} {
		if _, err := FromEdges(3, edges); err == nil {
			t.Errorf("FromEdges(3, %v) must fail", edges)
		}
	}
	if _, err := MultigraphFromEdges(3, [][2]int{{2, 2}}); err == nil {
		t.Error("MultigraphFromEdges with a self loop must fail")
	}
	for _, edges := range [][][2]int{{{2, 0}}, {{0, -1}}} {
		if _, err := BipartiteFromEdges(2, 2, edges); err == nil {
			t.Errorf("BipartiteFromEdges(2, 2, %v) must fail", edges)
		}
	}
	// A rejected list yields no graph; the same list without its bad edge
	// builds normally.
	g, err := FromEdges(3, [][2]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 1 || !g.HasEdge(0, 1) {
		t.Error("valid edge lost")
	}
}

func TestBipartiteGeneratorEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 0))
	if _, err := RandomBipartiteLeftRegular(3, 2, 5, rng); err == nil {
		t.Error("left degree > |V| must be rejected")
	}
	if _, err := RandomBipartiteBiregular(0, 3, 2, rng); err == nil {
		t.Error("empty left side must be rejected")
	}
	if _, err := RandomBipartiteDegreeRange(3, 4, 5, 2, rng); err == nil {
		t.Error("inverted degree range must be rejected")
	}
	if _, err := HighGirthTree(3, 4); err == nil {
		t.Error("even depth must be rejected (leaves would land in U)")
	}
	if _, err := SubdividedStar(1); err == nil {
		t.Error("SubdividedStar(1) must be rejected")
	}
	// Degenerate but legal: zero requested edges.
	b, err := RandomBipartiteLeftRegular(4, 4, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if b.M() != 0 || b.MinDegU() != 0 {
		t.Errorf("degree-0 instance has m=%d minDegU=%d", b.M(), b.MinDegU())
	}
}
