package graph

// Multigraph is an undirected multigraph with explicit edge identities.
// Parallel edges are allowed (Degree-Rank Reduction II produces them:
// "there can be multiple edges between two nodes in G with distinct
// corresponding nodes"), and the directed degree splitting of
// Definition 2.1 is computed on multigraphs.
//
// Endpoints are stored in two flat arrays indexed by edge id; the per-node
// incidence lists are a CSR over edge ids. Incidence rows list edge ids in
// ascending order, so Euler tours and splitters iterate edges in id order.
type Multigraph struct {
	n     int
	tails []int32 // tails[e], heads[e] are the endpoints of edge e
	heads []int32
	inc   CSR // inc row v = edge ids incident to v (both endpoints listed)
}

// MultigraphFromEdges builds a multigraph on n nodes whose edge e is
// edges[e]. Parallel edges are kept; self loops and out-of-range endpoints
// are errors.
func MultigraphFromEdges(n int, edges [][2]int) (*Multigraph, error) {
	tails, heads := make([]int32, len(edges)), make([]int32, len(edges))
	bld := NewCSRBuilder(n, len(edges))
	for e, uv := range edges {
		u, v := uv[0], uv[1]
		if err := checkEdge("multigraph", n, u, v); err != nil {
			return nil, err
		}
		tails[e], heads[e] = int32(u), int32(v)
		// Filling in edge-id order lists every row in ascending id order.
		bld.arcToCol(int32(u), int32(e))
		bld.arcToCol(int32(v), int32(e))
	}
	return &Multigraph{n: n, tails: tails, heads: heads, inc: bld.BuildRaw()}, nil
}

// N returns the number of nodes.
func (m *Multigraph) N() int { return m.n }

// M returns the number of edges.
func (m *Multigraph) M() int { return len(m.tails) }

// Deg returns the degree of v, counting parallel edges.
func (m *Multigraph) Deg(v int) int {
	return m.inc.Deg(v)
}

// Incident returns the edge ids incident to v as a view into the flat
// incidence array (do not modify).
func (m *Multigraph) Incident(v int) []int32 {
	return m.inc.Row(v)
}

// Endpoints returns the two endpoints of edge e.
func (m *Multigraph) Endpoints(e int) (int, int) {
	return int(m.tails[e]), int(m.heads[e])
}

// Other returns the endpoint of e that is not v.
func (m *Multigraph) Other(e, v int) int {
	if int(m.tails[e]) == v {
		return int(m.heads[e])
	}
	return int(m.tails[e])
}

// MaxDeg returns the maximum degree.
func (m *Multigraph) MaxDeg() int {
	var d int
	for v := 0; v < m.n; v++ {
		if dv := m.inc.Deg(v); dv > d {
			d = dv
		}
	}
	return d
}

// Orientation assigns a direction to every edge of a multigraph:
// Toward[e] == true means edge e points from Endpoints(e) tail to head,
// false means head to tail.
type Orientation struct {
	Toward []bool
}

// Out reports whether edge e leaves node v under o.
func (m *Multigraph) Out(o *Orientation, e, v int) bool {
	if o.Toward[e] {
		return int(m.tails[e]) == v
	}
	return int(m.heads[e]) == v
}

// Discrepancy returns |out(v) - in(v)| for node v under orientation o,
// the quantity bounded by Definition 2.1.
func (m *Multigraph) Discrepancy(o *Orientation, v int) int {
	var out, in int
	for _, e := range m.Incident(v) {
		if m.Out(o, int(e), v) {
			out++
		} else {
			in++
		}
	}
	d := out - in
	if d < 0 {
		d = -d
	}
	return d
}

// MaxDiscrepancy returns the maximum discrepancy over all nodes.
func (m *Multigraph) MaxDiscrepancy(o *Orientation) int {
	var worst int
	for v := 0; v < m.n; v++ {
		if d := m.Discrepancy(o, v); d > worst {
			worst = d
		}
	}
	return worst
}

// MultigraphFromGraph copies a simple graph into multigraph form, returning
// also the edge list in the multigraph's edge-id order.
func MultigraphFromGraph(g *Graph) (*Multigraph, [][2]int) {
	edges := g.Edges()
	m, err := MultigraphFromEdges(g.N(), edges)
	if err != nil {
		// Unreachable: a valid simple graph has no loops or range errors.
		panic(err)
	}
	return m, edges
}
