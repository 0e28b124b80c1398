package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/prob"
)

// DRRIResult is the outcome of Degree-Rank Reduction I.
type DRRIResult struct {
	B     *graph.Bipartite // the residual instance after all iterations
	Trace Trace
	// MinDeg and Rank trajectories, indexed by iteration (0 = input).
	MinDegs []int
	Ranks   []int
}

// DegreeRankReductionI is the reduction of Section 2.2: in each iteration a
// directed degree splitting is computed on the bipartite graph itself, and
// every edge oriented from a variable node towards a constraint node is
// deleted, halving (up to the splitting discrepancy) both the left degrees
// and the rank (Lemma 2.4):
//
//	δ_k > ((1-ε)/2)^k·δ - 2   and   r_k < ((1+ε)/2)^k·r + 3.
func DegreeRankReductionI(b *graph.Bipartite, iterations int, eps float64, kind SplitterKind, src *prob.Source) (*DRRIResult, error) {
	if iterations < 0 {
		return nil, fmt.Errorf("core: negative iteration count %d", iterations)
	}
	cur := b
	res := &DRRIResult{
		MinDegs: []int{b.MinDegU()},
		Ranks:   []int{b.Rank()},
	}
	for it := 0; it < iterations; it++ {
		// Multigraph edge e is the e-th bipartite edge in U-row order, with
		// V-node v relabelled nu+v.
		nu := cur.NU()
		edges := make([][2]int, 0, cur.M())
		for u := 0; u < nu; u++ {
			for _, v := range cur.NbrU(u) {
				edges = append(edges, [2]int{u, nu + int(v)})
			}
		}
		m, err := graph.MultigraphFromEdges(cur.N(), edges)
		if err != nil {
			return nil, fmt.Errorf("core: DRR-I multigraph: %w", err)
		}
		var itSrc *prob.Source
		if src != nil {
			itSrc = src.Fork(uint64(it))
		} else if kind == SplitterApproxRand {
			return nil, fmt.Errorf("core: randomized splitter requires a source")
		}
		sp := split(kind, m, eps, itSrc)
		res.Trace.Add(fmt.Sprintf("drr1-iter%d-split(%s)", it, kind), sp.Rounds)
		// Keep exactly the edges oriented from U towards V.
		kept := edges[:0]
		for e, uv := range edges {
			if sp.O.Toward[e] { // tail(u) → head(v): v keeps an incoming edge
				kept = append(kept, [2]int{uv[0], uv[1] - nu})
			}
		}
		next, err := graph.BipartiteFromEdges(nu, cur.NV(), kept)
		if err != nil {
			return nil, fmt.Errorf("core: DRR-I rebuild: %w", err)
		}
		cur = next
		res.MinDegs = append(res.MinDegs, cur.MinDegU())
		res.Ranks = append(res.Ranks, cur.Rank())
	}
	res.B = cur
	return res, nil
}

// DRRIIResult is the outcome of Degree-Rank Reduction II.
type DRRIIResult struct {
	B     *graph.Bipartite
	Trace Trace
	// Ranks[k] is the rank after k iterations; Lemma 2.6 proves
	// Ranks[⌈log r⌉] = 1. MinDegs tracks the left degrees.
	Ranks   []int
	MinDegs []int
}

// DegreeRankReductionII is the reduction of Section 2.3: each variable node
// v pairs up its constraint neighbors; every pair becomes an edge of a
// multigraph G on U (with v as "corresponding node"); after a directed
// degree splitting of G, for an edge directed u → ū the bipartite edge
// (ū, v) is deleted. A variable node thus keeps exactly one edge of each of
// its pairs (plus its unpaired edge), so rank halves exactly:
// r_{k+1} = ⌈r_k/2⌉, and r never drops below 1 (Lemma 2.6).
//
// The splitter here is the Eulerian chain splitter (discrepancy ≤ 1), our
// stand-in for the ε·d+2 splitter of [GHK+17b] that Theorem 2.7 invokes
// with ε < 1/d (DESIGN.md substitution 1): a constraint node loses at most
// ⌈deg_G(u)/2⌉+… no more than half of its pairs plus one.
func DegreeRankReductionII(b *graph.Bipartite, iterations int) (*DRRIIResult, error) {
	if iterations < 0 {
		return nil, fmt.Errorf("core: negative iteration count %d", iterations)
	}
	cur := b
	res := &DRRIIResult{
		Ranks:   []int{b.Rank()},
		MinDegs: []int{b.MinDegU()},
	}
	for it := 0; it < iterations; it++ {
		// Multigraph edge e pairs two constraint neighbours of variable vOf[e].
		edges := make([][2]int, 0, cur.M()/2)
		vOf := make([]int32, 0, cur.M()/2)
		for v := 0; v < cur.NV(); v++ {
			nbrs := cur.NbrV(v)
			for i := 0; i+1 < len(nbrs); i += 2 {
				edges = append(edges, [2]int{int(nbrs[i]), int(nbrs[i+1])})
				vOf = append(vOf, int32(v))
			}
		}
		m, err := graph.MultigraphFromEdges(cur.NU(), edges)
		if err != nil {
			return nil, fmt.Errorf("core: DRR-II multigraph: %w", err)
		}
		sp := split(SplitterEulerian, m, 0, nil)
		res.Trace.Add(fmt.Sprintf("drr2-iter%d-split", it), sp.Rounds)
		// Deletion rule: edge u1→u2 deletes (u2, v); u2→u1 deletes (u1, v).
		deleted := make(map[[2]int32]struct{}, len(edges))
		for e, pair := range edges {
			gone := pair[0]
			if sp.O.Toward[e] {
				gone = pair[1]
			}
			deleted[[2]int32{int32(gone), vOf[e]}] = struct{}{}
		}
		cur = cur.SubgraphKeepEdges(func(u, v int) bool {
			_, gone := deleted[[2]int32{int32(u), int32(v)}]
			return !gone
		})
		res.Ranks = append(res.Ranks, cur.Rank())
		res.MinDegs = append(res.MinDegs, cur.MinDegU())
	}
	res.B = cur
	return res, nil
}
