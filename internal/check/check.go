// Package check contains independent verifiers for every problem output in
// the repository. Algorithms self-verify against these before returning, and
// the test suite uses them as oracles. Conventions: two-colorings use
// 0 = red, 1 = blue; -1 means uncolored where partial colorings are legal.
package check

import (
	"fmt"

	"repro/internal/graph"
)

// Two-coloring label conventions, shared across packages.
const (
	Red       = 0
	Blue      = 1
	Uncolored = -1
)

// WeakSplit verifies Definition 1.1 with a degree threshold: every left node
// u with deg(u) ≥ minDeg must have at least one neighbor of each color.
// Colors apply to the V side; every V node must be colored. A constraint's
// scan stops at its first neighbor of the second color.
func WeakSplit(b *graph.Bipartite, colors []int, minDeg int) error {
	if len(colors) != b.NV() {
		return fmt.Errorf("check: %d colors for %d variable nodes", len(colors), b.NV())
	}
	for v, c := range colors {
		if c != Red && c != Blue {
			return fmt.Errorf("check: variable %d has invalid color %d", v, c)
		}
	}
	cu := b.CSRU()
	for u := 0; u < cu.N(); u++ {
		if cu.Deg(u) < minDeg {
			continue
		}
		var red, blue bool
		for _, v := range cu.Row(u) {
			switch colors[v] {
			case Red:
				red = true
			case Blue:
				blue = true
			}
			if red && blue {
				break
			}
		}
		if !red || !blue {
			return fmt.Errorf("check: constraint %d (degree %d) lacks a %s neighbor",
				u, cu.Deg(u), missing(red))
		}
	}
	return nil
}

func missing(red bool) string {
	if !red {
		return "red"
	}
	return "blue"
}

// MulticolorCover verifies Definition 1.3 parametrically: every left node u
// with deg(u) ≥ minDeg must see at least needColors distinct colors among
// its neighbors; colors must lie in [0, palette).
func MulticolorCover(b *graph.Bipartite, colors []int, palette, minDeg, needColors int) error {
	if len(colors) != b.NV() {
		return fmt.Errorf("check: %d colors for %d variable nodes", len(colors), b.NV())
	}
	for v, c := range colors {
		if c < 0 || c >= palette {
			return fmt.Errorf("check: variable %d color %d outside [0,%d)", v, c, palette)
		}
	}
	seen := make([]int, palette)
	epoch := 0
	cu := b.CSRU()
	for u := 0; u < cu.N(); u++ {
		if cu.Deg(u) < minDeg {
			continue
		}
		epoch++
		distinct := 0
		for _, v := range cu.Row(u) {
			if seen[colors[v]] != epoch {
				seen[colors[v]] = epoch
				distinct++
			}
		}
		if distinct < needColors {
			return fmt.Errorf("check: constraint %d sees %d < %d colors", u, distinct, needColors)
		}
	}
	return nil
}

// CLambdaSplit verifies Definition 1.2: a C-coloring of V such that every
// left node u with deg(u) ≥ minDeg has at most ⌈λ·deg(u)⌉ neighbors of each
// color.
func CLambdaSplit(b *graph.Bipartite, colors []int, palette int, lambda float64, minDeg int) error {
	if len(colors) != b.NV() {
		return fmt.Errorf("check: %d colors for %d variable nodes", len(colors), b.NV())
	}
	for v, c := range colors {
		if c < 0 || c >= palette {
			return fmt.Errorf("check: variable %d color %d outside [0,%d)", v, c, palette)
		}
	}
	counts := make([]int, palette)
	cu := b.CSRU()
	for u := 0; u < cu.N(); u++ {
		d := cu.Deg(u)
		if d < minDeg {
			continue
		}
		for i := range counts {
			counts[i] = 0
		}
		for _, v := range cu.Row(u) {
			counts[colors[v]]++
		}
		limit := ceilMul(lambda, d)
		for x, cnt := range counts {
			if cnt > limit {
				return fmt.Errorf("check: constraint %d has %d neighbors of color %d > ⌈λ·%d⌉ = %d",
					u, cnt, x, d, limit)
			}
		}
	}
	return nil
}

func ceilMul(lambda float64, d int) int {
	l := lambda * float64(d)
	k := int(l)
	if float64(k) < l {
		k++
	}
	return k
}

// UniformSplit verifies the uniform (strong) splitting of Section 4.1:
// every node v with deg(v) ≥ minDeg must have its neighbor count of each
// color within [(1/2-ε)·deg(v), (1/2+ε)·deg(v)].
func UniformSplit(g *graph.Graph, colors []int, eps float64, minDeg int) error {
	if len(colors) != g.N() {
		return fmt.Errorf("check: %d colors for %d nodes", len(colors), g.N())
	}
	for v, c := range colors {
		if c != Red && c != Blue {
			return fmt.Errorf("check: node %d has invalid color %d", v, c)
		}
	}
	for v := 0; v < g.N(); v++ {
		d := g.Deg(v)
		if d < minDeg {
			continue
		}
		red := 0
		for _, w := range g.Neighbors(v) {
			if colors[w] == Red {
				red++
			}
		}
		lo := (0.5 - eps) * float64(d)
		hi := (0.5 + eps) * float64(d)
		if float64(red) < lo || float64(red) > hi {
			return fmt.Errorf("check: node %d red-degree %d outside [%.2f,%.2f] (deg %d)", v, red, lo, hi, d)
		}
	}
	return nil
}

// SinklessOrientation verifies that under the orientation (Toward[i] true
// means Edges[i][0]→Edges[i][1]), every node with degree ≥ minDeg has at
// least one outgoing edge.
func SinklessOrientation(g *graph.Graph, edges [][2]int, toward []bool, minDeg int) error {
	if len(edges) != len(toward) {
		return fmt.Errorf("check: %d edges vs %d directions", len(edges), len(toward))
	}
	hasOut := make([]bool, g.N())
	for i, e := range edges {
		if toward[i] {
			hasOut[e[0]] = true
		} else {
			hasOut[e[1]] = true
		}
	}
	for v := 0; v < g.N(); v++ {
		if g.Deg(v) >= minDeg && !hasOut[v] {
			return fmt.Errorf("check: node %d (degree %d) is a sink", v, g.Deg(v))
		}
	}
	return nil
}

// MIS verifies that inSet is a maximal independent set of g.
func MIS(g *graph.Graph, inSet []bool) error {
	if len(inSet) != g.N() {
		return fmt.Errorf("check: %d flags for %d nodes", len(inSet), g.N())
	}
	for v := 0; v < g.N(); v++ {
		covered := inSet[v]
		for _, w := range g.Neighbors(v) {
			if inSet[w] {
				if inSet[v] {
					return fmt.Errorf("check: MIS not independent: edge {%d,%d}", v, w)
				}
				covered = true
			}
		}
		if !covered {
			return fmt.Errorf("check: MIS not maximal: node %d uncovered", v)
		}
	}
	return nil
}

// DegreeSplitting verifies a directed degree splitting (Definition 2.1):
// every node's discrepancy must be at most bound(deg(v)).
func DegreeSplitting(m *graph.Multigraph, o *graph.Orientation, bound func(deg int) float64) error {
	if len(o.Toward) != m.M() {
		return fmt.Errorf("check: %d directions for %d edges", len(o.Toward), m.M())
	}
	for v := 0; v < m.N(); v++ {
		if d := m.Discrepancy(o, v); float64(d) > bound(m.Deg(v)) {
			return fmt.Errorf("check: node %d discrepancy %d exceeds bound %.2f (degree %d)",
				v, d, bound(m.Deg(v)), m.Deg(v))
		}
	}
	return nil
}

// ProperColoring verifies that adjacent nodes have distinct colors and all
// colors lie in [0, palette).
func ProperColoring(g *graph.Graph, colors []int, palette int) error {
	if len(colors) != g.N() {
		return fmt.Errorf("check: %d colors for %d nodes", len(colors), g.N())
	}
	for v := 0; v < g.N(); v++ {
		if colors[v] < 0 || colors[v] >= palette {
			return fmt.Errorf("check: node %d color %d outside [0,%d)", v, colors[v], palette)
		}
		for _, w := range g.Neighbors(v) {
			if colors[v] == colors[w] {
				return fmt.Errorf("check: monochromatic edge {%d,%d}", v, w)
			}
		}
	}
	return nil
}

// DefectiveSplit verifies the defective 2-coloring of footnote 2
// (Section 1.1): every node with degree ≥ minDeg has at most
// (1/2+ε)·deg(v) neighbors of its own color.
func DefectiveSplit(g *graph.Graph, colors []int, eps float64, minDeg int) error {
	if len(colors) != g.N() {
		return fmt.Errorf("check: %d colors for %d nodes", len(colors), g.N())
	}
	for v, c := range colors {
		if c != Red && c != Blue {
			return fmt.Errorf("check: node %d has invalid color %d", v, c)
		}
	}
	for v := 0; v < g.N(); v++ {
		d := g.Deg(v)
		if d < minDeg {
			continue
		}
		same := 0
		for _, w := range g.Neighbors(v) {
			if colors[w] == colors[v] {
				same++
			}
		}
		if float64(same) > (0.5+eps)*float64(d) {
			return fmt.Errorf("check: node %d has %d same-color neighbors > (1/2+ε)·%d = %.2f",
				v, same, d, (0.5+eps)*float64(d))
		}
	}
	return nil
}
