// Package slocal implements the SLOCAL model of [GKM17] and the
// SLOCAL → LOCAL compilation of [GHK17a, Proposition 3.2]: an SLOCAL(t)
// algorithm processes nodes sequentially, each reading only its t-hop
// neighborhood; given a proper C-coloring of the t-th power of the conflict
// graph, nodes of equal color have disjoint read/write balls, so the whole
// order can be executed color class by color class in O(C·t) LOCAL rounds.
//
// The paper uses this pipeline in Lemma 2.1 (weak splitting via a coloring
// of B²), Theorem 3.2 (via the colors produced by multicolor splitting) and
// Theorem 5.2 (derandomized shattering via a coloring of B⁴).
package slocal

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/derand"
	"repro/internal/graph"
)

// Order returns the node processing order induced by a coloring: ascending
// by (color, index). Nodes of equal color commute when the coloring is
// proper on the t-th power of the conflict graph.
//
// Conflict colorings use fewer colors than nodes, so the order is a
// counting sort by color, which keeps each class in index order; colors
// spread over a range more than twice the node count fall back to a stable
// comparison sort.
func Order(colors []int) []int {
	order := make([]int, len(colors))
	if len(colors) == 0 {
		return order
	}
	lo, hi := colors[0], colors[0]
	for _, c := range colors[1:] {
		lo, hi = min(lo, c), max(hi, c)
	}
	// hi−lo as unsigned is the exact span even where int would overflow.
	if uint(hi-lo) > 2*uint(len(colors)) {
		for i := range order {
			order[i] = i
		}
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(colors[a], colors[b]) })
		return order
	}
	// next[c−lo] is where the next node of color c goes.
	next := make([]int, hi-lo+2)
	for _, c := range colors {
		next[c-lo+1]++
	}
	for i := 1; i < len(next); i++ {
		next[i] += next[i-1]
	}
	for v, c := range colors {
		order[next[c-lo]] = v
		next[c-lo]++
	}
	return order
}

// Rounds is the LOCAL round cost of executing an SLOCAL(t) algorithm in
// color-class order with C classes: each class gathers its t-hop ball,
// computes, and writes back, costing 2t+1 rounds per class.
func Rounds(numColors, radius int) int {
	return numColors * (2*radius + 1)
}

// CompiledResult carries the labels produced by a compiled greedy run plus
// the LOCAL round accounting.
type CompiledResult struct {
	Labels []int
	Rounds int
}

// CompileGreedy executes a derandomization (a derand.Estimator greedily
// minimized) as an SLOCAL(radius) algorithm in the class order of the given
// coloring, and accounts the LOCAL rounds per Proposition 3.2. The conflict
// coloring must be proper on the radius-th power of the variables' conflict
// graph; the caller can enforce this with CheckConflictColoring.
func CompileGreedy(est derand.Estimator, colors []int, numColors, radius int) (*CompiledResult, error) {
	if len(colors) != est.Vars() {
		return nil, fmt.Errorf("slocal: %d colors for %d variables", len(colors), est.Vars())
	}
	labels, err := derand.Greedy(est, Order(colors))
	if err != nil {
		return nil, fmt.Errorf("slocal: %w", err)
	}
	return &CompiledResult{Labels: labels, Rounds: Rounds(numColors, radius)}, nil
}

// CheckConflictColoring verifies that the coloring is proper on the given
// conflict graph (typically B² or B⁴ restricted to the variable side), i.e.
// that same-color variables really have disjoint dependency balls and the
// parallel execution implied by the round accounting is sound.
func CheckConflictColoring(conflict *graph.Graph, colors []int) error {
	if len(colors) != conflict.N() {
		return fmt.Errorf("slocal: %d colors for %d conflict nodes", len(colors), conflict.N())
	}
	for v := 0; v < conflict.N(); v++ {
		for _, w := range conflict.Neighbors(v) {
			if colors[v] == colors[w] {
				return fmt.Errorf("slocal: conflict nodes %d and %d share color %d", v, w, colors[v])
			}
		}
	}
	return nil
}
