package reduction

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/orient"
	"repro/internal/prob"
)

// EdgeColoringResult is a proper edge coloring produced via repeated edge
// splitting (the Section 1.1 pipeline of [GS17] that motivated the paper's
// vertex splitting program).
type EdgeColoringResult struct {
	// Colors[i] colors the i-th edge of g.Edges().
	Colors []int
	Num    int // palette size used
	Parts  int // number of edge classes after the recursion
	Trace  core.Trace
}

// EdgeColoringViaSplitting computes a proper edge coloring by recursively
// 2-splitting the edge set (each class keeps per-node degrees ≈ half of its
// parent's) until classes have low degree, then greedily coloring each
// class with a disjoint palette. With perfect halving the palette is
// 2^k·(2·Δ/2^k − 1) < 2Δ, reproducing the 2Δ(1+o(1)) headline of [GS17];
// the measured palette is reported by experiment E15.
func EdgeColoringViaSplitting(g *graph.Graph, lowDeg int, src *prob.Source) (*EdgeColoringResult, error) {
	edges := g.Edges()
	res := &EdgeColoringResult{Colors: make([]int, len(edges))}
	if lowDeg < 2 {
		lowDeg = 2 * (prob.CeilLog2(max(2, g.N())) + 1)
	}
	// class[i] is the current class of edge i.
	class := make([]int, len(edges))
	parts := 1
	level := 0
	for {
		// Group edges by class and check the stopping condition.
		byClass := make([][]int, parts)
		for i, c := range class {
			byClass[c] = append(byClass[c], i)
		}
		maxDeg := 0
		degScratch := make([]int, g.N())
		for _, members := range byClass {
			for i := range degScratch {
				degScratch[i] = 0
			}
			for _, ei := range members {
				degScratch[edges[ei][0]]++
				degScratch[edges[ei][1]]++
			}
			for _, d := range degScratch {
				if d > maxDeg {
					maxDeg = d
				}
			}
		}
		if maxDeg <= lowDeg || level > 40 {
			break
		}
		// Split every class in parallel; charge the max round cost.
		maxRounds := 0
		newClass := make([]int, len(edges))
		for c, members := range byClass {
			if len(members) == 0 {
				continue
			}
			classEdges := make([][2]int, len(members))
			for j, ei := range members {
				classEdges[j] = edges[ei]
			}
			sub, err := graph.MultigraphFromEdges(g.N(), classEdges)
			if err != nil {
				return nil, fmt.Errorf("reduction: edge class %d: %w", c, err)
			}
			var classSrc *prob.Source
			if src != nil {
				classSrc = src.Fork(uint64(level*100000 + c))
			}
			split := orient.EdgeSplit(sub, 0, classSrc) // whole chains: tight halving
			if split.Rounds > maxRounds {
				maxRounds = split.Rounds
			}
			for j, ei := range members {
				newClass[ei] = 2*c + split.Colors[j]
			}
		}
		class = newClass
		parts *= 2
		res.Trace.Add(fmt.Sprintf("edge-split-level-%d", level), maxRounds)
		level++
	}
	// Greedy edge coloring per class with disjoint palettes: a class of max
	// degree d needs at most 2d−1 colors.
	byClass := make([][]int, parts)
	for i, c := range class {
		byClass[c] = append(byClass[c], i)
	}
	offset := 0
	used := 0
	edgeColor := res.Colors
	incident := make([][]int32, g.N()) // edge ids per node, filled per class
	for _, members := range byClass {
		if len(members) == 0 {
			continue
		}
		used++
		for i := range incident {
			incident[i] = incident[i][:0]
		}
		for _, ei := range members {
			incident[edges[ei][0]] = append(incident[edges[ei][0]], int32(ei))
			incident[edges[ei][1]] = append(incident[edges[ei][1]], int32(ei))
		}
		maxColor := 0
		for _, ei := range members {
			taken := make(map[int]struct{})
			for _, side := range edges[ei] {
				for _, other := range incident[side] {
					if int(other) != ei && edgeColor[other] > 0 {
						taken[edgeColor[other]] = struct{}{}
					}
				}
			}
			c := offset + 1
			for {
				if _, bad := taken[c]; !bad {
					break
				}
				c++
			}
			edgeColor[ei] = c
			if c > maxColor {
				maxColor = c
			}
		}
		offset = maxColor
	}
	// Shift palette to 0-based.
	for i := range edgeColor {
		edgeColor[i]--
	}
	res.Num = offset
	res.Parts = used
	res.Trace.Add("per-class-greedy", res.Num)
	if err := verifyEdgeColoring(g, edges, edgeColor, res.Num); err != nil {
		return nil, fmt.Errorf("reduction: edge coloring self-check: %w", err)
	}
	return res, nil
}

// verifyEdgeColoring checks that adjacent edges (sharing an endpoint) have
// distinct colors within [0, palette).
func verifyEdgeColoring(g *graph.Graph, edges [][2]int, colors []int, palette int) error {
	if len(colors) != len(edges) {
		return fmt.Errorf("%d colors for %d edges", len(colors), len(edges))
	}
	seen := make([]map[int]int, g.N())
	for i := range seen {
		seen[i] = make(map[int]int)
	}
	for i, e := range edges {
		c := colors[i]
		if c < 0 || c >= palette {
			return fmt.Errorf("edge %d color %d outside [0,%d)", i, c, palette)
		}
		for _, v := range e {
			if other, dup := seen[v][c]; dup {
				return fmt.Errorf("edges %d and %d share node %d and color %d", i, other, v, c)
			}
			seen[v][c] = i
		}
	}
	return nil
}
