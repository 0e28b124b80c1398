package graph

import (
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
)

// refAdjacency is the pre-CSR reference construction: slices-of-slices with
// per-row sort + dedup, kept here as the oracle for round-trip tests.
func refAdjacency(n int, edges [][2]int32) [][]int32 {
	adj := make([][]int32, n)
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	for v := range adj {
		sort.Slice(adj[v], func(a, b int) bool { return adj[v][a] < adj[v][b] })
		out := adj[v][:0]
		for i, x := range adj[v] {
			if i == 0 || x != adj[v][i-1] {
				out = append(out, x)
			}
		}
		adj[v] = out
	}
	return adj
}

func randomEdgeList(n, m int, rng *rand.Rand) [][2]int32 {
	edges := make([][2]int32, 0, m)
	for i := 0; i < m; i++ {
		u, v := int32(rng.IntN(n)), int32(rng.IntN(n))
		if u == v {
			continue
		}
		edges = append(edges, [2]int32{u, v})
	}
	return edges
}

// TestCSRRoundTripGraph cross-checks every CSR construction path (builder,
// AddEdge + Normalize, lazy accessor-triggered merge) against the old
// adjacency-list construction on random multigraph-ish edge lists.
func TestCSRRoundTripGraph(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 0))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.IntN(60)
		m := rng.IntN(4 * n)
		edges := randomEdgeList(n, m, rng)
		want := refAdjacency(n, edges)

		// Path 1: CSRBuilder.
		bld := NewCSRBuilder(n, len(edges))
		for _, e := range edges {
			bld.Edge(e[0], e[1])
		}
		fromBuilder := fromCSR(bld.Build())

		// Path 2: AddEdge + explicit Normalize.
		viaAdd := NewGraph(n)
		for _, e := range edges {
			if err := viaAdd.AddEdge(int(e[0]), int(e[1])); err != nil {
				t.Fatal(err)
			}
		}
		viaAdd.Normalize()

		// Path 3: AddEdge with the merge triggered lazily by the first read.
		lazy := NewGraph(n)
		for _, e := range edges {
			if err := lazy.AddEdge(int(e[0]), int(e[1])); err != nil {
				t.Fatal(err)
			}
		}

		for _, g := range []*Graph{fromBuilder, viaAdd, lazy} {
			if g.N() != n {
				t.Fatalf("trial %d: N = %d, want %d", trial, g.N(), n)
			}
			var wantM int
			for _, row := range want {
				wantM += len(row)
			}
			if got := g.M(); got != wantM/2 {
				t.Fatalf("trial %d: M = %d, want %d", trial, got, wantM/2)
			}
			for v := 0; v < n; v++ {
				if !slices.Equal(g.Neighbors(v), want[v]) {
					t.Fatalf("trial %d: node %d neighbors %v, want %v", trial, v, g.Neighbors(v), want[v])
				}
			}
		}
	}
}

// TestCSRRoundTripBipartite does the same for both sides of Bipartite.
func TestCSRRoundTripBipartite(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 0))
	for trial := 0; trial < 50; trial++ {
		nu, nv := 1+rng.IntN(30), 1+rng.IntN(30)
		m := rng.IntN(3 * (nu + nv))
		adjU := make([][]int32, nu)
		adjV := make([][]int32, nv)
		b := NewBipartite(nu, nv)
		for i := 0; i < m; i++ {
			u, v := rng.IntN(nu), rng.IntN(nv)
			adjU[u] = append(adjU[u], int32(v))
			adjV[v] = append(adjV[v], int32(u))
			if err := b.AddEdge(u, v); err != nil {
				t.Fatal(err)
			}
		}
		sortDedup := func(adj [][]int32) {
			for i := range adj {
				slices.Sort(adj[i])
				adj[i] = slices.Compact(adj[i])
			}
		}
		sortDedup(adjU)
		sortDedup(adjV)
		for u := 0; u < nu; u++ {
			if !slices.Equal(b.NbrU(u), adjU[u]) {
				t.Fatalf("trial %d: NbrU(%d) = %v, want %v", trial, u, b.NbrU(u), adjU[u])
			}
		}
		for v := 0; v < nv; v++ {
			if !slices.Equal(b.NbrV(v), adjV[v]) {
				t.Fatalf("trial %d: NbrV(%d) = %v, want %v", trial, v, b.NbrV(v), adjV[v])
			}
		}
	}
}

// TestCSRRoundTripMultigraph checks that incidence rows keep edge ids in
// insertion order and retain parallel edges.
func TestCSRRoundTripMultigraph(t *testing.T) {
	m := NewMultigraph(4)
	ids := make([]int, 0, 5)
	for _, e := range [][2]int{{0, 1}, {0, 1}, {1, 2}, {2, 0}, {1, 3}} {
		id, err := m.AddEdge(e[0], e[1])
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if got := m.Deg(0); got != 3 {
		t.Fatalf("Deg(0) = %d, want 3 (parallel edges count)", got)
	}
	if got := m.Incident(1); !slices.Equal(got, []int32{0, 1, 2, 4}) {
		t.Fatalf("Incident(1) = %v, want edge ids in insertion order [0 1 2 4]", got)
	}
	// Incremental growth after a read must be reflected by the next read.
	id, err := m.AddEdge(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Incident(3); !slices.Equal(got, []int32{4, int32(id)}) {
		t.Fatalf("Incident(3) after growth = %v, want [4 %d]", got, id)
	}
	_ = ids
}

// TestCSRBuilderAllocs is the acceptance guard for the CSR tentpole: a
// Build over a pre-filled arc buffer performs a small constant number of
// allocations (offsets, edges, fill cursor) regardless of node count — no
// per-node adjacency slices.
func TestCSRBuilderAllocs(t *testing.T) {
	const n, m = 100_000, 300_000
	rng := rand.New(rand.NewPCG(13, 0))
	bld := NewCSRBuilder(n, m)
	for i := 0; i < m; i++ {
		u, v := int32(rng.IntN(n)), int32(rng.IntN(n))
		if u != v {
			bld.Edge(u, v)
		}
	}
	allocs := testing.AllocsPerRun(3, func() {
		bld.Build()
	})
	if allocs > 8 {
		t.Fatalf("CSRBuilder.Build allocated %.0f times for %d nodes; want a small constant (per-node slices would be ~%d)", allocs, n, n)
	}
}

// TestRandomSparseGraphAllocs pins the end-to-end generator: building a
// 100k-node random graph must not allocate per node.
func TestRandomSparseGraphAllocs(t *testing.T) {
	const n, m = 100_000, 300_000
	allocs := testing.AllocsPerRun(2, func() {
		rng := rand.New(rand.NewPCG(14, 0))
		g := RandomSparseGraph(n, m, rng)
		if g.N() != n {
			t.Fatal("wrong size")
		}
	})
	if allocs > 16 {
		t.Fatalf("RandomSparseGraph allocated %.0f times for %d nodes; want a small constant", allocs, n)
	}
}

// TestTransformAllocs pins the transforms on the solver path to a small
// constant number of allocations however large the instance: each builds
// its CSR arrays directly (plus its scratch), where the pending-buffer
// construction grew its buffer by doubling and sorted through per-call
// temporaries. Each ceiling is the count at the time of writing plus two
// of slack for the runtime's own allocations (e.g. a collection starting
// mid-run); a per-node or per-row allocation would cost thousands here.
func TestTransformAllocs(t *testing.T) {
	for _, scale := range []int{1, 10} {
		nu, nv, d := 300*scale, 1200*scale, 24
		b, err := RandomBipartiteLeftRegular(nu, nv, d, rand.New(rand.NewPCG(17, 0)))
		if err != nil {
			t.Fatal(err)
		}
		pins := []struct {
			name    string
			ceiling float64
			run     func()
		}{
			// perm, the draws (2), two transposes (2 each), the result,
			// and the rng the call consumes.
			{"RandomBipartiteLeftRegular", 12, func() {
				_, _ = RandomBipartiteLeftRegular(nu, nv, d, rand.New(rand.NewPCG(17, 0)))
			}},
			// offsets, origin, the transpose (2), the result (2).
			{"NormalizeLeftDegrees", 8, func() { _, _ = NormalizeLeftDegrees(b, 5) }},
			// offsets, edges, the transpose (2), the result.
			{"TruncateLeftDegrees", 7, func() { TruncateLeftDegrees(b, 13) }},
			// offsets, edges, two stamp arrays, the bitmap, the result.
			{"VPower(1)", 8, func() { b.VPower(1) }},
			// two seen arrays, two flat lists, component ends, the result
			// (2).
			{"ConnectedComponents", 9, func() { b.ConnectedComponents() }},
		}
		for _, p := range pins {
			if allocs := testing.AllocsPerRun(5, p.run); allocs > p.ceiling {
				t.Errorf("%s on %d×%d allocated %.0f times; want at most %.0f", p.name, nu, nv, allocs, p.ceiling)
			}
		}
	}
}

// TestGraphCSRView checks the zero-copy contract: Neighbors and CSR().Row
// return views into one flat array, and Off/Edges are consistent.
func TestGraphCSRView(t *testing.T) {
	g := RandomSparseGraph(200, 600, rand.New(rand.NewPCG(15, 0)))
	c := g.CSR()
	if c.N() != g.N() || c.Arcs() != 2*g.M() {
		t.Fatalf("CSR shape mismatch: N=%d/%d arcs=%d m=%d", c.N(), g.N(), c.Arcs(), g.M())
	}
	if c.Off[0] != 0 || int(c.Off[c.N()]) != len(c.Edges) {
		t.Fatalf("offset invariants broken: Off[0]=%d Off[n]=%d len=%d", c.Off[0], c.Off[c.N()], len(c.Edges))
	}
	for v := 0; v < g.N(); v++ {
		row := g.Neighbors(v)
		if len(row) != c.Deg(v) {
			t.Fatalf("node %d: Neighbors len %d != CSR deg %d", v, len(row), c.Deg(v))
		}
		if len(row) > 0 && &row[0] != &c.Edges[c.Off[v]] {
			t.Fatalf("node %d: Neighbors is not a view into the flat edge array", v)
		}
		if !slices.IsSorted(row) {
			t.Fatalf("node %d: row not sorted: %v", v, row)
		}
	}
}
