// Package graph provides the graph substrates of the reproduction: simple
// undirected graphs, bipartite constraint/variable graphs B = (U ∪ V, E) as
// used throughout the paper, and multigraphs (needed by the directed degree
// splitting of Definition 2.1 and by Degree-Rank Reduction II).
//
// It also provides the instance generators used by the experiments and the
// structural transforms the paper relies on: the graph → bipartite encoding
// of Section 1.2, virtual-node degree normalization (Section 2.4), clique
// gadgets (Section 4.1), and power graphs B², B⁴ (used to compile SLOCAL
// algorithms into LOCAL ones).
//
// All three graph types store their adjacency in compressed-sparse-row form
// (see CSR): one flat offset array plus one flat edge array, so neighbor
// scans are contiguous and million-node instances fit in a handful of
// allocations. Neighbor slices returned by accessors are zero-copy views
// into the flat arrays.
//
// Every Graph, Bipartite and Multigraph is immutable once its constructor
// returns: there is no mutator, reads never write, and any value is safe
// for concurrent use. Transforms build new values (sharing arrays with
// their input where the layout allows) rather than modifying one.
package graph

import (
	"fmt"
	"sort"
)

// Graph is a simple undirected graph on nodes 0..N()-1 with sorted,
// CSR-backed adjacency rows.
type Graph struct {
	csr CSR
}

// NewGraph returns an empty graph with n nodes.
func NewGraph(n int) *Graph {
	return &Graph{csr: emptyCSR(n)}
}

// fromCSR wraps an already sorted-and-deduplicated CSR as a Graph.
func fromCSR(c CSR) *Graph { return &Graph{csr: c} }

// FromEdges builds a graph on n nodes from an edge list. Repeated edges
// (in either orientation) are merged; self loops and out-of-range endpoints
// are errors.
func FromEdges(n int, edges [][2]int) (*Graph, error) {
	bld := NewCSRBuilder(n, len(edges))
	for _, e := range edges {
		if err := checkEdge("graph", n, e[0], e[1]); err != nil {
			return nil, err
		}
		bld.Edge(int32(e[0]), int32(e[1]))
	}
	return fromCSR(bld.Build()), nil
}

// checkEdge reports a self loop {u, u} or an endpoint outside [0, n); what
// names the graph kind in the error.
func checkEdge(what string, n, u, v int) error {
	if u == v {
		return fmt.Errorf("%s: self loop at node %d", what, u)
	}
	if u < 0 || v < 0 || u >= n || v >= n {
		return fmt.Errorf("%s: edge {%d,%d} out of range [0,%d)", what, u, v, n)
	}
	return nil
}

// CSR exposes the flat offset/edge arrays (zero-copy; callers must not
// modify them). Engines and checkers iterate neighbors directly off these.
func (g *Graph) CSR() CSR {
	return g.csr
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.csr.N() }

// M returns the number of edges.
func (g *Graph) M() int {
	return g.csr.Arcs() / 2
}

// Deg returns the degree of node v.
func (g *Graph) Deg(v int) int {
	return g.csr.Deg(v)
}

// Neighbors returns the sorted neighbor list of v as a view into the flat
// edge array; it must not be modified.
func (g *Graph) Neighbors(v int) []int32 {
	return g.csr.Row(v)
}

// HasEdge reports whether {u, v} is an edge, in O(log deg(u)).
func (g *Graph) HasEdge(u, v int) bool {
	nbrs := g.Neighbors(u)
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= int32(v) })
	return i < len(nbrs) && nbrs[i] == int32(v)
}

// MaxDeg returns the maximum degree Δ (0 for the empty graph).
func (g *Graph) MaxDeg() int { return g.csr.maxDeg() }

// MinDeg returns the minimum degree δ (0 for the empty graph).
func (g *Graph) MinDeg() int { return g.csr.minDeg() }

// Edges returns the edge list with u < v in each pair.
func (g *Graph) Edges() [][2]int {
	edges := make([][2]int, 0, g.M())
	for u := 0; u < g.csr.N(); u++ {
		for _, v := range g.csr.Row(u) {
			if int32(u) < v {
				edges = append(edges, [2]int{u, int(v)})
			}
		}
	}
	return edges
}

// InducedSubgraph returns the subgraph induced by keep, together with the
// mapping from new node ids to original ids.
func (g *Graph) InducedSubgraph(keep []int) (*Graph, []int) {
	idx := make(map[int]int, len(keep))
	orig := make([]int, len(keep))
	for i, v := range keep {
		idx[v] = i
		orig[i] = v
	}
	bld := NewCSRBuilder(len(keep), 0)
	for i, v := range keep {
		for _, w := range g.csr.Row(v) {
			if j, ok := idx[int(w)]; ok && i < j {
				bld.Edge(int32(i), int32(j))
			}
		}
	}
	return fromCSR(bld.Build()), orig
}

// ConnectedComponents returns the node sets of the connected components.
func (g *Graph) ConnectedComponents() [][]int {
	n := g.csr.N()
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	var comps [][]int
	queue := make([]int32, 0, n)
	for s := 0; s < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		id := len(comps)
		comp[s] = id
		queue = append(queue[:0], int32(s))
		members := []int{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range g.csr.Row(int(v)) {
				if comp[w] < 0 {
					comp[w] = id
					members = append(members, int(w))
					queue = append(queue, w)
				}
			}
		}
		comps = append(comps, members)
	}
	return comps
}

// Girth returns the length of a shortest cycle, or 0 if the graph is a
// forest. It runs a BFS from every node, which is fine at the scale of the
// experiment instances.
func (g *Graph) Girth() int {
	n := g.csr.N()
	best := 0
	dist := make([]int32, n)
	parent := make([]int32, n)
	queue := make([]int32, 0, n)
	for s := 0; s < n; s++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		parent[s] = -1
		queue = append(queue[:0], int32(s))
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range g.csr.Row(int(v)) {
				if w == parent[v] {
					// Skip exactly one copy of the tree edge back to the
					// parent; a second parallel edge would be a multi-edge,
					// which simple graphs exclude.
					parent[v] = -2
					continue
				}
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					parent[w] = v
					queue = append(queue, w)
				} else {
					// Found a cycle through s of length <= dist[v]+dist[w]+1.
					cyc := int(dist[v] + dist[w] + 1)
					if best == 0 || cyc < best {
						best = cyc
					}
				}
			}
			parent[v] = -2
		}
	}
	return best
}

// Power returns the k-th power graph: nodes are the same, and two distinct
// nodes are adjacent iff their distance in g is at most k.
func (g *Graph) Power(k int) *Graph {
	n := g.csr.N()
	if k < 1 {
		return NewGraph(n)
	}
	bld := NewCSRBuilder(n, g.csr.Arcs())
	visited := make([]int32, n)
	for i := range visited {
		visited[i] = -1
	}
	var queue []int32
	depth := make([]int32, n)
	for s := 0; s < n; s++ {
		queue = append(queue[:0], int32(s))
		visited[s] = int32(s)
		depth[s] = 0
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			if int(depth[v]) == k {
				continue
			}
			for _, w := range g.csr.Row(int(v)) {
				if visited[w] != int32(s) {
					visited[w] = int32(s)
					depth[w] = depth[v] + 1
					queue = append(queue, w)
					if int(w) > s {
						bld.Edge(int32(s), w)
					}
				}
			}
		}
	}
	return fromCSR(bld.Build())
}

// DegreeHistogram returns a map degree → count.
func (g *Graph) DegreeHistogram() map[int]int {
	h := make(map[int]int)
	for v := 0; v < g.csr.N(); v++ {
		h[g.csr.Deg(v)]++
	}
	return h
}

// IsForest reports whether g is acyclic, in O(n + m): a graph is a forest
// iff m = n - (number of connected components).
func (g *Graph) IsForest() bool {
	return g.M() == g.N()-len(g.ConnectedComponents())
}

// GirthAtLeast reports whether the girth of g is at least want (forests
// pass vacuously). It short-circuits the O(n·m) girth computation for
// forests, which the high-girth experiments use at scale.
func (g *Graph) GirthAtLeast(want int) bool {
	if g.IsForest() {
		return true
	}
	girth := g.Girth()
	return girth == 0 || girth >= want
}
