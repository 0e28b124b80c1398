package graph

import (
	"fmt"
	"math"
	"slices"
)

// Bipartite is a bipartite graph B = (U ∪ V, E) in the paper's convention:
// U is the left, constraint side (hypergraph vertices) and V is the right,
// variable side (hyperedges). Following Section 1.1, δ and Δ denote the
// minimum and maximum degree of nodes in U, and the rank r is the maximum
// degree of nodes in V.
//
// U-nodes are indexed 0..NU()-1 and V-nodes 0..NV()-1, independently. Each
// side has its own CSR row set; edges are stored once in a flat pending
// buffer until Normalize (or any read accessor) merges them into both
// sides — call Normalize after the last AddEdge before sharing an instance
// across goroutines (see the package comment).
type Bipartite struct {
	u, v    CSR     // u rows hold V-neighbors of U-nodes; v rows the reverse
	pending []int32 // flat (u, v) pairs awaiting a merge into both sides
}

// NewBipartite returns an empty bipartite graph with nu left and nv right
// nodes.
func NewBipartite(nu, nv int) *Bipartite {
	return &Bipartite{u: emptyCSR(nu), v: emptyCSR(nv)}
}

// BipartiteFromEdges builds a bipartite graph from (u, v) pairs.
func BipartiteFromEdges(nu, nv int, edges [][2]int) (*Bipartite, error) {
	b := NewBipartite(nu, nv)
	for _, e := range edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	b.Normalize()
	return b, nil
}

// AddEdge inserts the edge (u ∈ U, v ∈ V). Call Normalize after bulk
// insertion.
func (b *Bipartite) AddEdge(u, v int) error {
	if u < 0 || u >= b.NU() || v < 0 || v >= b.NV() {
		return fmt.Errorf("bipartite: edge (%d,%d) out of range U=[0,%d) V=[0,%d)",
			u, v, b.NU(), b.NV())
	}
	b.pending = append(b.pending, int32(u), int32(v))
	return nil
}

// addEdgeUnchecked buffers an in-range edge without validation; internal
// constructions that derive edges from an existing graph use it.
func (b *Bipartite) addEdgeUnchecked(u, v int32) {
	b.pending = append(b.pending, u, v)
}

// Normalize merges buffered edges into both CSR sides, sorting rows and
// removing parallel edges. Read accessors call it implicitly.
func (b *Bipartite) Normalize() {
	if b.pending == nil {
		return
	}
	b.u = mergeCSR(b.NU(), b.u, b.pending)
	b.v = mergeCSRFlipped(b.NV(), b.v, b.pending)
	b.pending = nil
}

// CSRU exposes the left side's flat offset/edge arrays (zero-copy; do not
// modify): row u lists the V-neighbors of U-node u. Hot loops over many
// left nodes (the verifiers in internal/check) iterate these directly.
func (b *Bipartite) CSRU() CSR {
	b.Normalize()
	return b.u
}

// CSRV exposes the right side's flat offset/edge arrays (zero-copy; do not
// modify): row v lists the U-neighbors of V-node v.
func (b *Bipartite) CSRV() CSR {
	b.Normalize()
	return b.v
}

// NU returns the number of constraint (left) nodes.
func (b *Bipartite) NU() int { return b.u.N() }

// NV returns the number of variable (right) nodes.
func (b *Bipartite) NV() int { return b.v.N() }

// N returns the total number of nodes |U| + |V|, the n of the paper's
// round bounds.
func (b *Bipartite) N() int { return b.NU() + b.NV() }

// M returns the number of edges.
func (b *Bipartite) M() int {
	b.Normalize()
	return b.u.Arcs()
}

// DegU returns the degree of left node u.
func (b *Bipartite) DegU(u int) int {
	b.Normalize()
	return b.u.Deg(u)
}

// DegV returns the degree of right node v.
func (b *Bipartite) DegV(v int) int {
	b.Normalize()
	return b.v.Deg(v)
}

// NbrU returns the sorted V-neighbors of u (a view into the flat edge
// array; do not modify).
func (b *Bipartite) NbrU(u int) []int32 {
	b.Normalize()
	return b.u.Row(u)
}

// NbrV returns the sorted U-neighbors of v (a view into the flat edge
// array; do not modify).
func (b *Bipartite) NbrV(v int) []int32 {
	b.Normalize()
	return b.v.Row(v)
}

// MinDegU returns δ, the minimum degree on the left side (0 if U is empty).
func (b *Bipartite) MinDegU() int {
	b.Normalize()
	nu := b.u.N()
	if nu == 0 {
		return 0
	}
	d := b.u.Deg(0)
	for u := 1; u < nu; u++ {
		if du := b.u.Deg(u); du < d {
			d = du
		}
	}
	return d
}

// MaxDegU returns Δ, the maximum degree on the left side.
func (b *Bipartite) MaxDegU() int {
	b.Normalize()
	var d int
	for u := 0; u < b.u.N(); u++ {
		if du := b.u.Deg(u); du > d {
			d = du
		}
	}
	return d
}

// Rank returns r, the maximum degree on the right side (the rank of the
// corresponding hypergraph).
func (b *Bipartite) Rank() int {
	b.Normalize()
	var d int
	for v := 0; v < b.v.N(); v++ {
		if dv := b.v.Deg(v); dv > d {
			d = dv
		}
	}
	return d
}

// Clone returns a deep copy.
func (b *Bipartite) Clone() *Bipartite {
	return &Bipartite{
		u:       b.u.clone(),
		v:       b.v.clone(),
		pending: append([]int32(nil), b.pending...),
	}
}

// Edges returns all (u, v) pairs.
func (b *Bipartite) Edges() [][2]int {
	b.Normalize()
	edges := make([][2]int, 0, b.M())
	for u := 0; u < b.u.N(); u++ {
		for _, v := range b.u.Row(u) {
			edges = append(edges, [2]int{u, int(v)})
		}
	}
	return edges
}

// SubgraphKeepEdges returns a new bipartite graph on the same node sets
// containing exactly the edges for which keep returns true.
func (b *Bipartite) SubgraphKeepEdges(keep func(u, v int) bool) *Bipartite {
	b.Normalize()
	c := NewBipartite(b.NU(), b.NV())
	for u := 0; u < b.u.N(); u++ {
		for _, v := range b.u.Row(u) {
			if keep(u, int(v)) {
				c.addEdgeUnchecked(int32(u), v)
			}
		}
	}
	c.Normalize()
	return c
}

// InducedSubgraph returns the bipartite subgraph induced by the given U and
// V node subsets, with mappings from new indices to original ones: new
// node i of either side is the i-th entry of its keep list.
//
// The V relabel is a lookup in vsKeep itself when it is strictly ascending
// (Residual's lists are), so new rows keep the original rows' order;
// otherwise (the BFS-ordered lists of ConnectedComponents) it is a lookup
// in a sorted copy, and each new row is sorted. Either way the work is
// proportional to the kept rows and lists, never to b's size, so carving a
// graph into many small components costs no more than the components.
func (b *Bipartite) InducedSubgraph(usKeep, vsKeep []int) (*Bipartite, []int, []int) {
	b.Normalize()
	newV := newKeepIndex(vsKeep)
	arcs := 0
	for _, u := range usKeep {
		arcs += b.u.Deg(u)
	}
	off := make([]int32, len(usKeep)+1)
	edges := make([]int32, 0, arcs)
	for i, u := range usKeep {
		for _, v := range b.u.Row(u) {
			if j, ok := newV.lookup(v); ok {
				edges = append(edges, j)
			}
		}
		off[i+1] = int32(len(edges))
		if !newV.monotone() {
			slices.Sort(edges[off[i]:])
		}
	}
	fwd := CSR{Off: off, Edges: edges}
	sub := &Bipartite{u: fwd, v: transposeRows(fwd, len(vsKeep))}
	origU := append([]int(nil), usKeep...)
	origV := append([]int(nil), vsKeep...)
	return sub, origU, origV
}

// keepIndex maps node ids to their positions in a keep list; a repeated id
// maps to its last position.
type keepIndex struct {
	keys   []int   // the keep list itself, when strictly ascending
	packed []int64 // otherwise: sorted id<<32 | position pairs
}

func newKeepIndex(keep []int) keepIndex {
	ascending := true
	for i := 1; i < len(keep) && ascending; i++ {
		ascending = keep[i-1] < keep[i]
	}
	if ascending {
		return keepIndex{keys: keep}
	}
	packed := make([]int64, 0, len(keep))
	for i, v := range keep {
		if v >= 0 && v <= math.MaxInt32 { // no other id can match a node
			packed = append(packed, int64(v)<<32|int64(i))
		}
	}
	slices.Sort(packed)
	return keepIndex{packed: packed}
}

// monotone reports whether positions ascend with ids, so that a sorted row
// relabels into a sorted row.
func (k keepIndex) monotone() bool { return k.packed == nil }

func (k keepIndex) lookup(v int32) (int32, bool) {
	if k.packed == nil {
		i, ok := slices.BinarySearch(k.keys, int(v))
		return int32(i), ok
	}
	// The last pair for v sits just before the first pair for v+1.
	i, _ := slices.BinarySearch(k.packed, (int64(v)+1)<<32)
	if i == 0 || k.packed[i-1]>>32 != int64(v) {
		return 0, false
	}
	return int32(k.packed[i-1]), true
}

// ConnectedComponents returns the connected components of B as parallel
// slices of U-indices and V-indices per component. Components seeded at U
// nodes come first, in order of their smallest U node, each listing its
// nodes in breadth-first discovery order (a nil V list when the seed is
// isolated); every isolated V node follows as a component of its own with
// a nil U list. All lists share two flat arrays (capped, so appending to
// one never writes into another), so the allocations do not grow with the
// number of components.
func (b *Bipartite) ConnectedComponents() (us [][]int, vs [][]int) {
	b.Normalize()
	nu, nv := b.u.N(), b.v.N()
	seenU := make([]bool, nu)
	seenV := make([]bool, nv)
	// flatU and flatV hold the components' lists back to back and double
	// as the BFS queues: the graph is bipartite, so a FIFO over both sides
	// drains all pending U nodes, then all pending V nodes, layer by layer.
	flatU := make([]int, 0, nu)
	flatV := make([]int, 0, nv)
	var ends []int // per U-seeded component: its ends in flatU and flatV
	for s := 0; s < nu; s++ {
		if seenU[s] {
			continue
		}
		seenU[s] = true
		flatU = append(flatU, s)
		pu, pv := len(flatU)-1, len(flatV)
		for pu < len(flatU) {
			for ; pu < len(flatU); pu++ {
				for _, v := range b.u.Row(flatU[pu]) {
					if !seenV[v] {
						seenV[v] = true
						flatV = append(flatV, int(v))
					}
				}
			}
			for ; pv < len(flatV); pv++ {
				for _, u := range b.v.Row(flatV[pv]) {
					if !seenU[u] {
						seenU[u] = true
						flatU = append(flatU, int(u))
					}
				}
			}
		}
		ends = append(ends, len(flatU), len(flatV))
	}
	seeded, reached := len(ends)/2, len(flatV)
	for v := 0; v < nv; v++ {
		if !seenV[v] {
			flatV = append(flatV, v)
		}
	}
	n := seeded + len(flatV) - reached
	us = make([][]int, n)
	vs = make([][]int, n)
	var lu, lv int
	for c := 0; c < seeded; c++ {
		hu, hv := ends[2*c], ends[2*c+1]
		us[c] = flatU[lu:hu:hu]
		if hv > lv {
			vs[c] = flatV[lv:hv:hv]
		}
		lu, lv = hu, hv
	}
	// Isolated V nodes form their own (trivial) components.
	for c := seeded; c < n; c++ {
		vs[c] = flatV[lv : lv+1 : lv+1]
		lv++
	}
	return us, vs
}

// AsGraph returns B as a plain graph with U-nodes 0..NU()-1 followed by
// V-nodes NU()..NU()+NV()-1. It is used for girth computation and power
// graphs of the whole bipartite graph.
func (b *Bipartite) AsGraph() *Graph {
	b.Normalize()
	nu := b.u.N()
	bld := NewCSRBuilder(nu+b.v.N(), b.u.Arcs())
	for u := 0; u < nu; u++ {
		for _, v := range b.u.Row(u) {
			bld.Edge(int32(u), v+int32(nu))
		}
	}
	return fromCSR(bld.Build())
}

// Girth returns the girth of B (always even), or 0 if B is acyclic.
func (b *Bipartite) Girth() int { return b.AsGraph().Girth() }

// VPower returns the graph on V-nodes where two distinct variable nodes are
// adjacent iff their distance in B is at most 2k (bipartite distances
// between same-side nodes are even). VPower(1) is the "B²" conflict graph
// used to compile SLOCAL(2) algorithms; VPower(2) is the "B⁴" graph used by
// Theorem 5.2.
//
// Row s is emitted directly: the stamp arrays already make every w within
// k hops appear once, so each row needs only a sort (see sortDistinct).
// For k = 1 the edge array is sized up front from Σ_u deg(u)·(deg(u)−1),
// capped at the complete graph's nv·(nv−1) and at the int32 layout limit.
func (b *Bipartite) VPower(k int) *Graph {
	b.Normalize()
	nv := b.v.N()
	off := make([]int32, nv+1)
	var edges []int32
	if k == 1 {
		var bound int
		for u := 0; u < b.u.N(); u++ {
			d := b.u.Deg(u)
			bound += d * (d - 1)
		}
		edges = make([]int32, 0, min(bound, nv*(nv-1), maxCSRArcs))
	}
	visitedV := make([]int32, nv)
	visitedU := make([]int32, b.u.N())
	mark := make([]uint64, (nv+63)/64)
	for i := range visitedV {
		visitedV[i] = -1
	}
	for i := range visitedU {
		visitedU[i] = -1
	}
	var seed [1]int32
	for s := 0; s < nv; s++ {
		visitedV[s] = int32(s)
		seed[0] = int32(s)
		frontier := seed[:]
		lo := len(edges)
		for hop := 0; hop < k; hop++ {
			at := len(edges)
			for _, v := range frontier {
				for _, u := range b.v.Row(int(v)) {
					if visitedU[u] == int32(s) {
						continue
					}
					visitedU[u] = int32(s)
					for _, w := range b.u.Row(int(u)) {
						if visitedV[w] != int32(s) {
							visitedV[w] = int32(s)
							edges = append(edges, w)
						}
					}
				}
			}
			// The V nodes this hop reached are the next hop's frontier (a
			// view: growing edges later leaves its values intact).
			frontier = edges[at:]
		}
		checkArcs(len(edges))
		sortDistinct(edges[lo:], mark)
		off[s+1] = int32(len(edges))
	}
	return fromCSR(CSR{Off: off, Edges: edges})
}

// UGraph returns the graph on U-nodes where two constraints are adjacent iff
// they share a variable node (the graph G in the proof of Theorem 1.2).
func (b *Bipartite) UGraph() *Graph {
	b.Normalize()
	nu := b.u.N()
	bld := NewCSRBuilder(nu, 0)
	seen := make([]int32, nu)
	for i := range seen {
		seen[i] = -1
	}
	for u := 0; u < nu; u++ {
		seen[u] = int32(u)
		for _, v := range b.u.Row(u) {
			for _, w := range b.v.Row(int(v)) {
				if seen[w] != int32(u) {
					seen[w] = int32(u)
					if int(w) > u {
						bld.Edge(int32(u), w)
					}
				}
			}
		}
	}
	return fromCSR(bld.Build())
}
