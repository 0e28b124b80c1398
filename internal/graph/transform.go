package graph

import "fmt"

// FromGraph encodes a general graph G as a weak-splitting bipartite instance
// following Section 1.2: every node v of G gets a left copy vL ∈ U and a
// right copy vR ∈ V, and every edge {u, v} of G contributes the bipartite
// edges (uL, vR) and (vL, uR). Copy i of node v is index v on both sides.
//
// A weak splitting of the result 2-colors the right copies, i.e. the nodes
// of G, such that every node (whose degree is large enough) has a neighbor
// of each color — exactly the weak splitting problem on G.
func FromGraph(g *Graph) *Bipartite {
	c := g.CSR()
	n := c.N()
	b := NewBipartite(n, n)
	for u := 0; u < n; u++ {
		for _, v := range c.Row(u) {
			b.addEdgeUnchecked(int32(u), v)
		}
	}
	b.Normalize()
	return b
}

// VirtualSplit is the virtual-node degree normalization of Section 2.4: a
// left node u with deg(u) > 2δ is split into ⌊deg(u)/δ⌋ virtual nodes, each
// receiving between δ and 2δ-1 of u's edges, so the resulting instance has
// δ ≤ deg < 2δ on the left. A weak splitting of the virtual instance
// directly induces one on the original (each virtual node's constraint is
// stricter than the original's).
type VirtualSplit struct {
	B      *Bipartite // the normalized instance
	Origin []int      // Origin[u'] = original left node of virtual node u'
}

// NormalizeLeftDegrees performs the virtual split with parameter delta,
// which must be ≤ the minimum left degree.
//
// Each virtual node's row is a contiguous piece of its original node's
// sorted row, and the pieces are laid out in order, so the result's U side
// reuses b's U edge array under new offsets: the two instances share that
// array, which is safe because CSR arrays are never modified once built.
// The V side is the transpose.
func NormalizeLeftDegrees(b *Bipartite, delta int) (*VirtualSplit, error) {
	if delta <= 0 {
		return nil, fmt.Errorf("graph: delta must be positive, got %d", delta)
	}
	if md := b.MinDegU(); md < delta {
		return nil, fmt.Errorf("graph: delta %d exceeds minimum left degree %d", delta, md)
	}
	partsOf := func(d int) int {
		if d > 2*delta {
			return d / delta
		}
		return 1
	}
	cu := b.CSRU()
	// First pass: count virtual nodes so the result is sized up front.
	var nuVirtual int
	for u := 0; u < cu.N(); u++ {
		nuVirtual += partsOf(cu.Deg(u))
	}
	off := make([]int32, 1, nuVirtual+1)
	origin := make([]int, 0, nuVirtual)
	for u := 0; u < cu.N(); u++ {
		d := cu.Deg(u)
		parts := partsOf(d)
		base, extra := d/parts, d%parts
		at := cu.Off[u]
		for p := 0; p < parts; p++ {
			at += int32(base)
			if p < extra {
				at++
			}
			off = append(off, at)
			origin = append(origin, u)
		}
	}
	fwd := CSR{Off: off, Edges: cu.Edges}
	nb := &Bipartite{u: fwd, v: transposeRows(fwd, b.NV())}
	return &VirtualSplit{B: nb, Origin: origin}, nil
}

// TruncateLeftDegrees returns a subgraph in which every left node keeps only
// its first keep edges (an arbitrary subset, as in Lemma 2.2). Left nodes
// with degree ≤ keep are unchanged. The weak splitting property is preserved
// under adding edges back.
func TruncateLeftDegrees(b *Bipartite, keep int) *Bipartite {
	cu := b.CSRU()
	keep = max(keep, 0)
	off := make([]int32, cu.N()+1)
	for u := 0; u < cu.N(); u++ {
		off[u+1] = off[u] + int32(min(cu.Deg(u), keep))
	}
	edges := make([]int32, off[cu.N()])
	for u := 0; u < cu.N(); u++ {
		copy(edges[off[u]:off[u+1]], cu.Row(u))
	}
	fwd := CSR{Off: off, Edges: edges}
	return &Bipartite{u: fwd, v: transposeRows(fwd, b.NV())}
}

// CliqueGadgetResult is the outcome of AttachCliqueGadgets.
type CliqueGadgetResult struct {
	G        *Graph // the augmented graph
	Original int    // nodes 0..Original-1 are the original nodes
}

// AttachCliqueGadgets implements the Remark of Section 4.1: every node v
// with deg(v) < delta gets a fresh delta-clique, with edges from
// delta−deg(v) clique nodes to v, raising v's degree to delta while keeping
// all degrees ≤ delta + 1. A uniform splitting of the augmented graph
// restricted to the original nodes solves the modified (no low-degree
// constraint) problem.
func AttachCliqueGadgets(g *Graph, delta int) *CliqueGadgetResult {
	c := g.CSR()
	n := c.N()
	low := 0
	for v := 0; v < n; v++ {
		if c.Deg(v) < delta {
			low++
		}
	}
	bld := NewCSRBuilder(n+low*delta, c.Arcs()/2+low*delta*(delta+1)/2)
	for u := 0; u < n; u++ {
		for _, v := range c.Row(u) {
			if int32(u) < v {
				bld.Edge(int32(u), v)
			}
		}
	}
	base := n
	for v := 0; v < n; v++ {
		need := delta - c.Deg(v)
		if need <= 0 {
			continue
		}
		for i := 0; i < delta; i++ {
			for j := i + 1; j < delta; j++ {
				bld.Edge(int32(base+i), int32(base+j))
			}
		}
		for i := 0; i < need; i++ {
			bld.Edge(int32(base+i), int32(v))
		}
		base += delta
	}
	return &CliqueGadgetResult{G: fromCSR(bld.Build()), Original: n}
}
