package graph

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/prob"
)

func TestGraphBasics(t *testing.T) {
	g, err := FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 || g.M() != 4 {
		t.Fatalf("N=%d M=%d, want 4,4", g.N(), g.M())
	}
	if g.MaxDeg() != 2 || g.MinDeg() != 2 {
		t.Fatalf("degrees: max=%d min=%d, want 2,2", g.MaxDeg(), g.MinDeg())
	}
	if !g.HasEdge(0, 1) || g.HasEdge(0, 2) {
		t.Fatal("HasEdge wrong")
	}
	if g.Girth() != 4 {
		t.Fatalf("girth of C4 = %d, want 4", g.Girth())
	}
}

func TestGraphErrors(t *testing.T) {
	for _, c := range []struct {
		edges [][2]int
		want  string
	}{
		{[][2]int{{0, 1}, {1, 1}}, "graph: self loop at node 1"},
		{[][2]int{{0, 3}}, "graph: edge {0,3} out of range [0,3)"},
		{[][2]int{{-1, 0}}, "graph: edge {-1,0} out of range [0,3)"},
	} {
		if _, err := FromEdges(3, c.edges); err == nil || err.Error() != c.want {
			t.Errorf("FromEdges(3, %v) error = %v, want %q", c.edges, err, c.want)
		}
	}
}

func TestNormalizeDedups(t *testing.T) {
	g, err := FromEdges(2, [][2]int{{0, 1}, {0, 1}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 1 {
		t.Fatalf("duplicate edge survived: M=%d", g.M())
	}
}

func TestGirth(t *testing.T) {
	cases := []struct {
		g    *Graph
		want int
	}{
		{PathGraph(10), 0},
		{Cycle(3), 3},
		{Cycle(7), 7},
		{Complete(4), 3},
	}
	for i, c := range cases {
		if got := c.g.Girth(); got != c.want {
			t.Errorf("case %d: girth = %d, want %d", i, got, c.want)
		}
	}
	// Two triangles joined by a path: girth 3.
	g, err := FromEdges(8, [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if g.Girth() != 3 {
		t.Errorf("girth = %d, want 3", g.Girth())
	}
}

func TestPowerGraph(t *testing.T) {
	p := PathGraph(5)
	p2 := p.Power(2)
	// In P5^2, node 0 is adjacent to 1 and 2.
	if p2.Deg(0) != 2 {
		t.Errorf("deg_P5^2(0) = %d, want 2", p2.Deg(0))
	}
	if p2.Deg(2) != 4 {
		t.Errorf("deg_P5^2(2) = %d, want 4", p2.Deg(2))
	}
	if !p2.HasEdge(0, 2) || p2.HasEdge(0, 3) {
		t.Error("P5^2 adjacency wrong")
	}
	if p.Power(0).M() != 0 {
		t.Error("0th power should have no edges")
	}
	// Depths past 127 must still cut the walk at k (an 8-bit depth wraps).
	long := PathGraph(300).Power(200)
	for _, c := range [][2]int{{0, 200}, {150, 299}, {299, 200}} {
		if got := long.Deg(c[0]); got != c[1] {
			t.Errorf("deg_P300^200(%d) = %d, want %d", c[0], got, c[1])
		}
	}
}

func TestConnectedComponents(t *testing.T) {
	g, err := FromEdges(6, [][2]int{{0, 1}, {1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	comps := g.ConnectedComponents()
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3", len(comps))
	}
	sizes := map[int]int{}
	for _, c := range comps {
		sizes[len(c)]++
	}
	if sizes[3] != 1 || sizes[2] != 1 || sizes[1] != 1 {
		t.Errorf("component sizes wrong: %v", sizes)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := Complete(5)
	sub, orig := g.InducedSubgraph([]int{0, 2, 4})
	if sub.N() != 3 || sub.M() != 3 {
		t.Fatalf("induced K3: N=%d M=%d", sub.N(), sub.M())
	}
	if orig[0] != 0 || orig[1] != 2 || orig[2] != 4 {
		t.Errorf("orig mapping wrong: %v", orig)
	}
}

func TestBipartiteBasics(t *testing.T) {
	b, err := BipartiteFromEdges(2, 3, [][2]int{{0, 0}, {0, 1}, {1, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if b.NU() != 2 || b.NV() != 3 || b.N() != 5 || b.M() != 4 {
		t.Fatalf("sizes wrong: NU=%d NV=%d N=%d M=%d", b.NU(), b.NV(), b.N(), b.M())
	}
	if b.MinDegU() != 2 || b.MaxDegU() != 2 || b.Rank() != 2 {
		t.Fatalf("δ=%d Δ=%d r=%d, want 2,2,2", b.MinDegU(), b.MaxDegU(), b.Rank())
	}
	for _, e := range [][2]int{{2, 0}, {0, 3}} {
		want := fmt.Sprintf("bipartite: edge (%d,%d) out of range U=[0,2) V=[0,3)", e[0], e[1])
		if _, err := BipartiteFromEdges(2, 3, [][2]int{{0, 0}, e}); err == nil || err.Error() != want {
			t.Errorf("BipartiteFromEdges with %v: error = %v, want %q", e, err, want)
		}
	}
}

func TestBipartiteComponents(t *testing.T) {
	// Two disjoint edges plus one isolated V node.
	b, err := BipartiteFromEdges(2, 3, [][2]int{{0, 0}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	us, vs := b.ConnectedComponents()
	if len(us) != 3 {
		t.Fatalf("got %d components, want 3", len(us))
	}
	// The isolated V node must appear as a trivial component.
	found := false
	for i := range us {
		if len(us[i]) == 0 && len(vs[i]) == 1 && vs[i][0] == 2 {
			found = true
		}
	}
	if !found {
		t.Error("isolated V node not reported")
	}
}

func TestBipartiteInducedSubgraph(t *testing.T) {
	b := CompleteBipartite(3, 3)
	sub, origU, origV := b.InducedSubgraph([]int{0, 2}, []int{1})
	if sub.NU() != 2 || sub.NV() != 1 || sub.M() != 2 {
		t.Fatalf("induced: NU=%d NV=%d M=%d", sub.NU(), sub.NV(), sub.M())
	}
	if origU[1] != 2 || origV[0] != 1 {
		t.Error("index mappings wrong")
	}
}

func TestVPower(t *testing.T) {
	// Path in bipartite form: v0 - u0 - v1 - u1 - v2.
	b, err := BipartiteFromEdges(2, 3, [][2]int{{0, 0}, {0, 1}, {1, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	sq := b.VPower(1)
	// v0 and v1 share u0; v1 and v2 share u1; v0 and v2 do not share.
	if !sq.HasEdge(0, 1) || !sq.HasEdge(1, 2) || sq.HasEdge(0, 2) {
		t.Error("VPower(1) adjacency wrong")
	}
	p4 := b.VPower(2)
	if !p4.HasEdge(0, 2) {
		t.Error("VPower(2) should connect v0 and v2")
	}
}

func TestUGraph(t *testing.T) {
	b, err := BipartiteFromEdges(3, 2, [][2]int{{0, 0}, {1, 0}, {1, 1}, {2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	ug := b.UGraph()
	if !ug.HasEdge(0, 1) || !ug.HasEdge(1, 2) || ug.HasEdge(0, 2) {
		t.Error("UGraph adjacency wrong")
	}
}

func TestBipartiteGirth(t *testing.T) {
	c4 := CompleteBipartite(2, 2)
	if g := c4.Girth(); g != 4 {
		t.Errorf("girth K2,2 = %d, want 4", g)
	}
	cyc, err := SubdividedCycleBipartite(5)
	if err != nil {
		t.Fatal(err)
	}
	if g := cyc.Girth(); g != 10 {
		t.Errorf("girth of subdivided C10 = %d, want 10", g)
	}
}

func TestMultigraph(t *testing.T) {
	m, err := MultigraphFromEdges(3, [][2]int{{0, 1}, {0, 1}, {1, 2}}) // parallel edge allowed
	if err != nil {
		t.Fatal(err)
	}
	e1, e2 := 0, 1
	if m.M() != 3 || m.Deg(0) != 2 || m.Deg(1) != 3 {
		t.Fatalf("multigraph degrees wrong: M=%d deg0=%d deg1=%d", m.M(), m.Deg(0), m.Deg(1))
	}
	if m.Other(e1, 0) != 1 || m.Other(e2, 1) != 0 {
		t.Error("Other wrong")
	}
	if _, err := MultigraphFromEdges(3, [][2]int{{0, 1}, {1, 1}}); err == nil || err.Error() != "multigraph: self loop at node 1" {
		t.Errorf("self loop: error = %v", err)
	}
	if _, err := MultigraphFromEdges(3, [][2]int{{0, 5}}); err == nil || err.Error() != "multigraph: edge {0,5} out of range [0,3)" {
		t.Errorf("out of range: error = %v", err)
	}
	o := &Orientation{Toward: []bool{true, false, true}}
	// e1: 0->1, e2: 1->0, e3: 1->2. Node 1: in=1 out=2 → disc 1; node 0: disc 0.
	if d := m.Discrepancy(o, 1); d != 1 {
		t.Errorf("disc(1) = %d, want 1", d)
	}
	if d := m.Discrepancy(o, 0); d != 0 {
		t.Errorf("disc(0) = %d, want 0", d)
	}
	if m.MaxDiscrepancy(o) != 1 {
		t.Error("max discrepancy wrong")
	}
}

func TestRandomGraph(t *testing.T) {
	rng := prob.NewSource(1).Rand()
	g := RandomGraph(50, 0.2, rng)
	if g.N() != 50 {
		t.Fatal("wrong node count")
	}
	m := g.M()
	if m < 100 || m > 400 { // mean ≈ 245
		t.Errorf("G(50,.2) edge count %d far from expectation", m)
	}
}

func TestRandomRegular(t *testing.T) {
	rng := prob.NewSource(2).Rand()
	g, err := RandomRegular(100, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if g.Deg(v) != 6 {
			t.Fatalf("node %d has degree %d, want 6", v, g.Deg(v))
		}
	}
	if _, err := RandomRegular(5, 3, rng); err == nil {
		t.Error("odd n*d should error")
	}
	if _, err := RandomRegular(4, 5, rng); err == nil {
		t.Error("d >= n should error")
	}
}

func TestRandomBipartiteLeftRegular(t *testing.T) {
	rng := prob.NewSource(3).Rand()
	b, err := RandomBipartiteLeftRegular(40, 60, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	if b.MinDegU() != 10 || b.MaxDegU() != 10 {
		t.Fatalf("left degrees not exactly 10: δ=%d Δ=%d", b.MinDegU(), b.MaxDegU())
	}
	if _, err := RandomBipartiteLeftRegular(5, 3, 4, rng); err == nil {
		t.Error("d > nv should error")
	}
}

func TestRandomBipartiteBiregular(t *testing.T) {
	rng := prob.NewSource(4).Rand()
	b, err := RandomBipartiteBiregular(30, 20, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	if b.MinDegU() != 8 || b.MaxDegU() != 8 {
		t.Fatalf("left degrees: δ=%d Δ=%d, want 8,8", b.MinDegU(), b.MaxDegU())
	}
	// Right degrees must be 30*8/20 = 12 exactly.
	for v := 0; v < b.NV(); v++ {
		if b.DegV(v) != 12 {
			t.Fatalf("right node %d has degree %d, want 12", v, b.DegV(v))
		}
	}
	if _, err := RandomBipartiteBiregular(2, 30, 3, rng); err == nil {
		t.Error("too few edges for nv should error")
	}
}

func TestRandomBipartiteDegreeRange(t *testing.T) {
	rng := prob.NewSource(5).Rand()
	b, err := RandomBipartiteDegreeRange(50, 50, 5, 15, rng)
	if err != nil {
		t.Fatal(err)
	}
	if b.MinDegU() < 5 || b.MaxDegU() > 15 {
		t.Fatalf("degrees out of range: δ=%d Δ=%d", b.MinDegU(), b.MaxDegU())
	}
	if _, err := RandomBipartiteDegreeRange(5, 5, 4, 3, rng); err == nil {
		t.Error("inverted range should error")
	}
}

func TestHighGirthTree(t *testing.T) {
	b, err := HighGirthTree(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if b.Girth() != 0 {
		t.Error("tree should be acyclic")
	}
	if b.MinDegU() < 4 {
		t.Errorf("δ = %d, want ≥ 4", b.MinDegU())
	}
	if b.Rank() > 5 {
		t.Errorf("rank = %d, want ≤ 5", b.Rank())
	}
	if _, err := HighGirthTree(4, 2); err == nil {
		t.Error("even depth should error")
	}
	if _, err := HighGirthTree(1, 3); err == nil {
		t.Error("arity 1 should error")
	}
}

func TestEnsureGirthAtLeast(t *testing.T) {
	rng := prob.NewSource(6).Rand()
	b, err := RandomBipartiteLeftRegular(30, 30, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	fixed, removed := EnsureGirthAtLeast(b, 10)
	if g := fixed.Girth(); g != 0 && g < 10 {
		t.Errorf("girth after repair = %d, want ≥ 10 or acyclic", g)
	}
	if removed == 0 {
		t.Log("no edges removed (instance already had high girth)")
	}
	if fixed.M()+removed != b.M() {
		t.Error("edge accounting wrong")
	}
}

func TestFromGraph(t *testing.T) {
	g := Cycle(5)
	b := FromGraph(g)
	if b.NU() != 5 || b.NV() != 5 || b.M() != 10 {
		t.Fatalf("encoding sizes wrong: NU=%d NV=%d M=%d", b.NU(), b.NV(), b.M())
	}
	// Left degree of vL equals deg_G(v); rank equals Δ(G).
	if b.MinDegU() != 2 || b.Rank() != 2 {
		t.Errorf("δ=%d r=%d, want 2,2", b.MinDegU(), b.Rank())
	}
	// (uL, vR) edge exists iff {u,v} ∈ G.
	for u := 0; u < 5; u++ {
		for _, v := range b.NbrU(u) {
			if !g.HasEdge(u, int(v)) {
				t.Errorf("bipartite edge (%d,%d) has no graph edge", u, v)
			}
		}
	}
}

func TestNormalizeLeftDegrees(t *testing.T) {
	// One left node with degree 10, delta 3 → 3 virtual nodes with degrees 4,3,3.
	edges := make([][2]int, 10)
	for i := range edges {
		edges[i] = [2]int{0, i}
	}
	b, err := BipartiteFromEdges(1, 10, edges)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := NormalizeLeftDegrees(b, 3)
	if err != nil {
		t.Fatal(err)
	}
	if vs.B.NU() != 3 {
		t.Fatalf("got %d virtual nodes, want 3", vs.B.NU())
	}
	if vs.B.MinDegU() < 3 || vs.B.MaxDegU() > 5 {
		t.Errorf("virtual degrees out of [δ,2δ): δ=%d Δ=%d", vs.B.MinDegU(), vs.B.MaxDegU())
	}
	total := 0
	for u := 0; u < vs.B.NU(); u++ {
		if vs.Origin[u] != 0 {
			t.Error("origin mapping wrong")
		}
		total += vs.B.DegU(u)
	}
	if total != 10 {
		t.Errorf("edges not partitioned: %d", total)
	}
	if _, err := NormalizeLeftDegrees(b, 11); err == nil {
		t.Error("delta above min degree should error")
	}
	if _, err := NormalizeLeftDegrees(b, 0); err == nil {
		t.Error("non-positive delta should error")
	}
}

func TestNormalizeLeftDegreesProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := prob.NewSource(seed).Rand()
		b, err := RandomBipartiteDegreeRange(20, 40, 4, 25, rng)
		if err != nil {
			return false
		}
		vs, err := NormalizeLeftDegrees(b, 4)
		if err != nil {
			return false
		}
		// Every virtual degree in [4, 8); edge multiset preserved per origin.
		degPerOrigin := make([]int, b.NU())
		for u := 0; u < vs.B.NU(); u++ {
			d := vs.B.DegU(u)
			if d < 4 || d >= 9 { // allow d/parts rounding: strictly < 2δ+1
				return false
			}
			degPerOrigin[vs.Origin[u]] += d
		}
		for u := 0; u < b.NU(); u++ {
			if degPerOrigin[u] != b.DegU(u) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestTruncateLeftDegrees(t *testing.T) {
	b := CompleteBipartite(3, 10)
	tb := TruncateLeftDegrees(b, 4)
	if tb.MaxDegU() != 4 || tb.MinDegU() != 4 {
		t.Errorf("truncated degrees: δ=%d Δ=%d, want 4,4", tb.MinDegU(), tb.MaxDegU())
	}
	// Truncating below existing degree is a no-op for those nodes.
	tb2 := TruncateLeftDegrees(b, 99)
	if tb2.M() != b.M() {
		t.Error("truncation above degree should keep all edges")
	}
}

func TestAttachCliqueGadgets(t *testing.T) {
	g := PathGraph(4) // degrees 1,2,2,1
	res := AttachCliqueGadgets(g, 3)
	if res.Original != 4 {
		t.Fatal("original count wrong")
	}
	for v := 0; v < res.Original; v++ {
		if res.G.Deg(v) < 3 {
			t.Errorf("node %d still has degree %d < 3", v, res.G.Deg(v))
		}
	}
	for v := res.Original; v < res.G.N(); v++ {
		if res.G.Deg(v) > 4 {
			t.Errorf("gadget node %d has degree %d > delta+1", v, res.G.Deg(v))
		}
	}
	// A graph already meeting the degree bound is unchanged.
	k := Complete(5)
	res2 := AttachCliqueGadgets(k, 3)
	if res2.G.N() != 5 {
		t.Error("no gadgets expected")
	}
}

func TestSubdividedCycleErrors(t *testing.T) {
	if _, err := SubdividedCycleBipartite(1); err == nil {
		t.Error("k < 2 should error")
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := PathGraph(4)
	h := g.DegreeHistogram()
	if h[1] != 2 || h[2] != 2 {
		t.Errorf("histogram wrong: %v", h)
	}
}

func TestVPowerAgainstBruteForce(t *testing.T) {
	f := func(seed uint64) bool {
		rng := prob.NewSource(seed).Rand()
		b, err := RandomBipartiteLeftRegular(8, 12, 3, rng)
		if err != nil {
			return false
		}
		// Brute-force distances on the underlying graph: V-nodes v, w are
		// VPower(k)-adjacent iff their graph distance is ≤ 2k.
		g := b.AsGraph()
		nu := b.NU()
		dist := func(a, c int) int {
			d := make([]int, g.N())
			for i := range d {
				d[i] = -1
			}
			d[a] = 0
			queue := []int{a}
			for len(queue) > 0 {
				v := queue[0]
				queue = queue[1:]
				for _, w := range g.Neighbors(v) {
					if d[w] < 0 {
						d[w] = d[v] + 1
						queue = append(queue, int(w))
					}
				}
			}
			return d[c]
		}
		for _, k := range []int{1, 2} {
			pw := b.VPower(k)
			for v := 0; v < b.NV(); v++ {
				for w := v + 1; w < b.NV(); w++ {
					d := dist(nu+v, nu+w)
					want := d > 0 && d <= 2*k
					if pw.HasEdge(v, w) != want {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestAsGraphRoundTrip(t *testing.T) {
	b := CompleteBipartite(3, 4)
	g := b.AsGraph()
	if g.N() != 7 || g.M() != 12 {
		t.Fatalf("AsGraph sizes wrong: N=%d M=%d", g.N(), g.M())
	}
	// U nodes come first; no U-U or V-V edges may exist.
	for u := 0; u < 3; u++ {
		for _, w := range g.Neighbors(u) {
			if int(w) < 3 {
				t.Fatal("U-U edge in AsGraph")
			}
		}
	}
}

func TestIsForestAndGirthAtLeast(t *testing.T) {
	if !PathGraph(10).IsForest() {
		t.Error("path is a forest")
	}
	if Cycle(5).IsForest() {
		t.Error("cycle is not a forest")
	}
	if !PathGraph(10).GirthAtLeast(100) {
		t.Error("forests pass any girth bound")
	}
	if Cycle(5).GirthAtLeast(6) {
		t.Error("C5 has girth 5 < 6")
	}
	if !Cycle(5).GirthAtLeast(5) {
		t.Error("C5 has girth exactly 5")
	}
	// Disconnected: forest + cycle.
	g, err := FromEdges(7, [][2]int{{0, 1}, {2, 3}, {3, 4}, {4, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if g.IsForest() {
		t.Error("graph contains a triangle")
	}
}

func TestSubdividedStarInvariants(t *testing.T) {
	for _, d := range []int{2, 5, 12} {
		b, err := SubdividedStar(d)
		if err != nil {
			t.Fatal(err)
		}
		if b.MinDegU() != d || b.MaxDegU() != d {
			t.Errorf("d=%d: degrees δ=%d Δ=%d", d, b.MinDegU(), b.MaxDegU())
		}
		if b.Rank() != 2 {
			t.Errorf("d=%d: rank %d", d, b.Rank())
		}
		if !b.AsGraph().IsForest() {
			t.Errorf("d=%d: not a tree", d)
		}
		if b.NU() != 1+d || b.NV() != d*d {
			t.Errorf("d=%d: sizes NU=%d NV=%d", d, b.NU(), b.NV())
		}
	}
	if _, err := SubdividedStar(1); err == nil {
		t.Error("d < 2 should error")
	}
}

func TestRandomSparseGraph(t *testing.T) {
	rng := prob.NewSource(77).Rand()
	g := RandomSparseGraph(10_000, 40_000, rng)
	if g.N() != 10_000 {
		t.Fatalf("n = %d", g.N())
	}
	if m := g.M(); m == 0 || m > 40_000 {
		t.Fatalf("m = %d, want (0, 40000]", m)
	}
	// Simple graph: no self loops, no duplicate edges, symmetric adjacency.
	for v := 0; v < g.N(); v++ {
		prev := int32(-1)
		for _, w := range g.Neighbors(v) {
			if w == int32(v) {
				t.Fatalf("self loop at %d", v)
			}
			if w == prev {
				t.Fatalf("duplicate edge %d-%d", v, w)
			}
			prev = w
			if !g.HasEdge(int(w), v) {
				t.Fatalf("asymmetric edge %d-%d", v, w)
			}
		}
	}
	// Same seed, same graph.
	g2 := RandomSparseGraph(10_000, 40_000, prob.NewSource(77).Rand())
	if g2.M() != g.M() {
		t.Errorf("not reproducible: %d vs %d edges", g2.M(), g.M())
	}
	if tiny := RandomSparseGraph(1, 10, rng); tiny.M() != 0 {
		t.Errorf("n=1 should have no edges")
	}
}

func TestRandomPowerLawGraph(t *testing.T) {
	rng := prob.NewSource(33).Rand()
	const n, maxDeg = 20000, 500
	g := RandomPowerLawGraph(n, 2.1, maxDeg, rng)
	if g.N() != n {
		t.Fatalf("N = %d", g.N())
	}
	top, total := 0, 0
	for v := 0; v < n; v++ {
		d := g.Deg(v)
		if d > maxDeg {
			t.Fatalf("node %d has degree %d > maxDeg %d", v, d, maxDeg)
		}
		if d > top {
			top = d
		}
		total += d
		for _, w := range g.Neighbors(v) {
			if int(w) == v {
				t.Fatalf("self loop at %d", v)
			}
		}
	}
	avg := float64(total) / float64(n)
	// The degree sequence must actually be heavy-tailed: the largest degree
	// dwarfs the mean (a Poisson-like RandomSparseGraph would fail this).
	if float64(top) < 20*avg {
		t.Errorf("max degree %d is not heavy-tailed vs mean %.1f", top, avg)
	}
	// Deterministic given the stream.
	h := RandomPowerLawGraph(n, 2.1, maxDeg, prob.NewSource(33).Rand())
	if h.M() != g.M() {
		t.Errorf("not deterministic: %d vs %d edges", h.M(), g.M())
	}
	if tiny := RandomPowerLawGraph(1, 2.5, 4, rng); tiny.N() != 1 || tiny.M() != 0 {
		t.Errorf("n=1 graph wrong: N=%d M=%d", tiny.N(), tiny.M())
	}
}

func TestRandomBipartitePowerLaw(t *testing.T) {
	rng := prob.NewSource(34).Rand()
	b, err := RandomBipartitePowerLaw(400, 800, 2.3, 60, rng)
	if err != nil {
		t.Fatal(err)
	}
	// The solvability floor for nu+nv = 1200 is 2·⌈log₂ 1200⌉ = 22.
	for u := 0; u < b.NU(); u++ {
		if d := b.DegU(u); d < 22 || d > 60 {
			t.Fatalf("left node %d has degree %d outside [22, 60]", u, d)
		}
	}
	if _, err := RandomBipartitePowerLaw(4, 8, 2.3, 9, rng); err == nil {
		t.Error("maxDeg > nv should error")
	}
	if _, err := RandomBipartitePowerLaw(400, 800, 2.3, 10, rng); err == nil {
		t.Error("maxDeg below the solvability floor should error")
	}
}
