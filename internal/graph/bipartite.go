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
// side has its own CSR row set, sorted and duplicate-free, and each is the
// transpose of the other.
type Bipartite struct {
	u, v CSR // u rows hold V-neighbors of U-nodes; v rows the reverse
}

// NewBipartite returns an edgeless bipartite graph with nu left and nv right
// nodes.
func NewBipartite(nu, nv int) *Bipartite {
	return &Bipartite{u: emptyCSR(nu), v: emptyCSR(nv)}
}

// BipartiteFromEdges builds a bipartite graph from (u, v) pairs, merging
// repeated pairs. An endpoint outside U=[0,nu) or V=[0,nv) is an error.
func BipartiteFromEdges(nu, nv int, edges [][2]int) (*Bipartite, error) {
	pairs := make([]int32, 0, 2*len(edges))
	for _, e := range edges {
		if err := checkBipartiteEdge(nu, nv, e[0], e[1]); err != nil {
			return nil, err
		}
		pairs = append(pairs, int32(e[0]), int32(e[1]))
	}
	return bipartiteFromPairs(nu, nv, pairs), nil
}

// checkBipartiteEdge reports an edge (u, v) outside U=[0,nu) × V=[0,nv).
func checkBipartiteEdge(nu, nv, u, v int) error {
	if u < 0 || u >= nu || v < 0 || v >= nv {
		return fmt.Errorf("bipartite: edge (%d,%d) out of range U=[0,%d) V=[0,%d)", u, v, nu, nv)
	}
	return nil
}

// bipartiteFromPairs builds a bipartite graph from flat, in-range (u, v)
// pairs: a counting fill of each side, then a per-row sort that drops
// repeated pairs.
func bipartiteFromPairs(nu, nv int, pairs []int32) *Bipartite {
	u := fillCSR(nu, pairs, false)
	sortDedupRows(&u)
	v := fillCSR(nv, pairs, true)
	sortDedupRows(&v)
	return &Bipartite{u: u, v: v}
}

// CSRU exposes the left side's flat offset/edge arrays (zero-copy; do not
// modify): row u lists the V-neighbors of U-node u. Hot loops over many
// left nodes (the verifiers in internal/check) iterate these directly.
func (b *Bipartite) CSRU() CSR {
	return b.u
}

// CSRV exposes the right side's flat offset/edge arrays (zero-copy; do not
// modify): row v lists the U-neighbors of V-node v.
func (b *Bipartite) CSRV() CSR {
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
	return b.u.Arcs()
}

// DegU returns the degree of left node u.
func (b *Bipartite) DegU(u int) int {
	return b.u.Deg(u)
}

// DegV returns the degree of right node v.
func (b *Bipartite) DegV(v int) int {
	return b.v.Deg(v)
}

// NbrU returns the sorted V-neighbors of u (a view into the flat edge
// array; do not modify).
func (b *Bipartite) NbrU(u int) []int32 {
	return b.u.Row(u)
}

// NbrV returns the sorted U-neighbors of v (a view into the flat edge
// array; do not modify).
func (b *Bipartite) NbrV(v int) []int32 {
	return b.v.Row(v)
}

// MinDegU returns δ, the minimum degree on the left side (0 if U is empty).
func (b *Bipartite) MinDegU() int { return b.u.minDeg() }

// MaxDegU returns Δ, the maximum degree on the left side.
func (b *Bipartite) MaxDegU() int { return b.u.maxDeg() }

// Rank returns r, the maximum degree on the right side (the rank of the
// corresponding hypergraph).
func (b *Bipartite) Rank() int { return b.v.maxDeg() }

// Edges returns all (u, v) pairs.
func (b *Bipartite) Edges() [][2]int {
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
	var pairs []int32
	for u := 0; u < b.u.N(); u++ {
		for _, v := range b.u.Row(u) {
			if keep(u, int(v)) {
				pairs = append(pairs, int32(u), v)
			}
		}
	}
	return bipartiteFromPairs(b.NU(), b.NV(), pairs)
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
// Row s is the PowerRows walk of s appended straight into the edge array:
// the walk already lists every w within k hops once, so each row needs only
// a sort (see sortDistinct). For k = 1 the edge array is sized up front from
// VPowerBound, capped at the int32 layout limit.
func (b *Bipartite) VPower(k int) *Graph {
	walk := b.PowerRows(k)
	nv := walk.N()
	off := make([]int32, nv+1)
	var edges []int32
	if k == 1 {
		arcs, _ := b.VPowerBound(1)
		edges = make([]int32, 0, min(arcs, maxCSRArcs))
	}
	mark := make([]uint64, (nv+63)/64)
	for s := 0; s < nv; s++ {
		lo := len(edges)
		edges = walk.appendRow(edges, s)
		checkArcs(len(edges))
		sortDistinct(edges[lo:], mark)
		off[s+1] = int32(len(edges))
	}
	return fromCSR(CSR{Off: off, Edges: edges})
}

// VPowerBound returns upper bounds on the directed arcs and the maximum
// degree of VPower(k), read off the degrees of B in O(|E|) without walking
// B's 2k-hop neighbourhoods. From any variable, one hop reaches at most
// h = max_s Σ_{u∋s} (deg(u)−1) other variables, so k hops reach at most
// h + h² + … + h^k; for k = 1 the arcs are also at most Σ_u deg(u)·(deg(u)−1).
// Both bounds are capped at the complete graph's.
func (b *Bipartite) VPowerBound(k int) (arcs, maxDeg int) {
	nv := b.v.N()
	if k < 1 || nv == 0 {
		return 0, 0
	}
	var sum, hop int
	for s := 0; s < nv; s++ {
		var r int
		for _, u := range b.v.Row(s) {
			r += b.u.Deg(int(u)) - 1
		}
		sum += r
		hop = max(hop, r)
	}
	for reach, hops := 1, 0; hops < k && maxDeg < nv-1; hops++ {
		reach *= hop
		maxDeg += reach
	}
	maxDeg = min(maxDeg, nv-1)
	arcs = nv * maxDeg
	if k == 1 {
		arcs = min(arcs, sum)
	}
	return arcs, maxDeg
}

// PowerRows walks the rows of VPower(k) one at a time without building the
// power graph: each row is the implicit 2k-hop neighbourhood of a variable
// in B, found by a stamp walk over B's two CSR sides. Rows come out
// duplicate-free but unsorted, in a buffer reused from row to row, so a
// consumer that reads each row once (the greedy conflict coloring) needs
// neither B^2k's edge array nor its row sorts.
type PowerRows struct {
	u, v  CSR
	k     int
	epoch int32   // stamp of the row being walked
	seenU []int32 // seenU[u] == epoch: u was expanded in this row (made by the first full row)
	seenV []int32 // seenV[w] == epoch: w is the source or already listed
	buf   []int32
}

// PowerRows returns a walker over the rows of VPower(k).
func (b *Bipartite) PowerRows(k int) *PowerRows {
	return &PowerRows{u: b.u, v: b.v, k: k, seenV: make([]int32, b.v.N())}
}

// N returns the number of rows, the number of variable nodes.
func (p *PowerRows) N() int { return p.v.N() }

// Neighbors returns row s of VPower(k): every other variable within
// distance 2k of s in B, once each, in the order the walk reaches them. The
// row is valid until the next call.
func (p *PowerRows) Neighbors(s int) []int32 {
	p.buf = p.appendRow(p.rowBuf(), s)
	return p.buf
}

// Below returns the variables of row s of VPower(1) that are below s: every
// w < s sharing a constraint with s, once each, in the order the walk
// reaches them. B's U rows are sorted, so the walk stops each one at the
// first variable ≥ s and reads about half the edges Neighbors does. An
// index-order greedy coloring reads nothing else, and counting each listed
// pair in both endpoints' degrees yields VPower(1)'s exact arcs and degrees.
// The row is valid until the next call; Below panics on a walker with
// k ≠ 1.
func (p *PowerRows) Below(s int) []int32 {
	if p.k != 1 {
		panic(fmt.Sprintf("graph: PowerRows.Below on a k = %d walker", p.k))
	}
	uc, seenV, e := p.u, p.seenV, p.stamp()
	dst := p.rowBuf()
	// The source's V row lists each constraint once, so no seenU is needed.
	for _, u := range p.v.Row(s) {
		for _, w := range uc.Row(int(u)) {
			if int(w) >= s {
				break
			}
			if seenV[w] != e {
				seenV[w] = e
				dst = append(dst, w)
			}
		}
	}
	p.buf = dst
	return dst
}

// rowBuf returns the reused row buffer, emptied.
func (p *PowerRows) rowBuf() []int32 {
	if p.buf == nil {
		// A row lists distinct variables other than s.
		p.buf = make([]int32, 0, max(p.v.N()-1, 0))
	}
	return p.buf[:0]
}

// stamp starts a new row and returns its stamp, clearing the stamp arrays
// when the counter wraps.
func (p *PowerRows) stamp() int32 {
	if p.epoch == math.MaxInt32 {
		clear(p.seenU)
		clear(p.seenV)
		p.epoch = 0
	}
	p.epoch++
	return p.epoch
}

// appendRow appends row s to dst. Each hop expands the variables the
// previous hop reached, a view of dst that later appends leave intact.
func (p *PowerRows) appendRow(dst []int32, s int) []int32 {
	if p.seenU == nil {
		p.seenU = make([]int32, p.u.N())
	}
	uc, vc, seenU, seenV := p.u, p.v, p.seenU, p.seenV
	e := p.stamp()
	seenV[s] = e
	seed := [1]int32{int32(s)}
	frontier := seed[:]
	for hop := 0; hop < p.k; hop++ {
		at := len(dst)
		for _, v := range frontier {
			for _, u := range vc.Row(int(v)) {
				if seenU[u] == e {
					continue
				}
				seenU[u] = e
				for _, w := range uc.Row(int(u)) {
					if seenV[w] != e {
						seenV[w] = e
						dst = append(dst, w)
					}
				}
			}
		}
		frontier = dst[at:]
	}
	return dst
}

// UGraph returns the graph on U-nodes where two constraints are adjacent iff
// they share a variable node (the graph G in the proof of Theorem 1.2).
func (b *Bipartite) UGraph() *Graph {
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
