// Native fuzz targets for the verifiers: each target decodes an instance
// and a candidate output from the fuzz input, cross-checks the verifier
// against an independent reference implementation, and then mutates valid
// outputs in ways that are invalid by construction — the verifier must
// reject every such corruption. Seed corpora for the known-good paths live
// in testdata/fuzz.
package check_test

import (
	"testing"

	"repro/internal/check"
	"repro/internal/graph"
)

// decodeBipartite derives a small bipartite instance from fuzz bytes:
// shape from the first three bytes, then one edge per byte pair.
func decodeBipartite(data []byte) (*graph.Bipartite, int, []byte) {
	if len(data) < 3 {
		return nil, 0, nil
	}
	nu := 1 + int(data[0])%12
	nv := 1 + int(data[1])%12
	minDeg := int(data[2]) % 4
	data = data[3:]
	nEdges := len(data) / 2
	if nEdges > 64 {
		nEdges = 64
	}
	edges := make([][2]int, nEdges)
	for i := range edges {
		edges[i] = [2]int{int(data[2*i]) % nu, int(data[2*i+1]) % nv}
	}
	b, err := graph.BipartiteFromEdges(nu, nv, edges)
	if err != nil {
		return nil, 0, nil
	}
	return b, minDeg, data[2*nEdges:]
}

// refWeakSplit is an independent oracle for Definition 1.1 written against
// the edge list only, so a CSR iteration bug in the verifier cannot hide.
func refWeakSplit(b *graph.Bipartite, colors []int, minDeg int) bool {
	if len(colors) != b.NV() {
		return false
	}
	for _, c := range colors {
		if c != check.Red && c != check.Blue {
			return false
		}
	}
	sawRed := make([]bool, b.NU())
	sawBlue := make([]bool, b.NU())
	for _, e := range b.Edges() {
		if colors[e[1]] == check.Red {
			sawRed[e[0]] = true
		} else {
			sawBlue[e[0]] = true
		}
	}
	for u := 0; u < b.NU(); u++ {
		if b.DegU(u) >= minDeg && (!sawRed[u] || !sawBlue[u]) {
			return false
		}
	}
	return true
}

func FuzzWeakSplit(f *testing.F) {
	// Known-good path: a perfect matching plus alternating colors.
	f.Add([]byte{4, 4, 1, 0, 0, 0, 1, 1, 0, 1, 1, 2, 2, 3, 3, 0xAA})
	f.Add([]byte{2, 6, 0, 0, 0, 0, 1, 1, 2, 1, 3, 0x55, 0x0F})
	f.Add([]byte{8, 3, 2, 5, 1, 5, 2, 6, 0, 6, 1, 7, 0, 7, 2, 0xF0, 0x3C})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, minDeg, rest := decodeBipartite(data)
		if b == nil {
			return
		}
		// Candidate coloring from the remaining bits.
		colors := make([]int, b.NV())
		for v := range colors {
			if len(rest) > 0 && rest[0]&(1<<(v%8)) != 0 {
				colors[v] = check.Blue
			} else {
				colors[v] = check.Red
			}
			if v%8 == 7 && len(rest) > 1 {
				rest = rest[1:]
			}
		}

		err := check.WeakSplit(b, colors, minDeg)
		if want := refWeakSplit(b, colors, minDeg); (err == nil) != want {
			t.Fatalf("verifier disagrees with reference: verifier err=%v, reference valid=%v\ncolors=%v", err, want, colors)
		}
		if err != nil {
			return
		}

		// The output is valid; every corruption below must be rejected.
		corrupt := func(name string, mutate func([]int) []int) {
			t.Helper()
			c := mutate(append([]int(nil), colors...))
			if check.WeakSplit(b, c, minDeg) == nil {
				t.Fatalf("corruption %q accepted: colors=%v", name, c)
			}
		}
		corrupt("out-of-range color", func(c []int) []int {
			c[int(data[0])%len(c)] = 2
			return c
		})
		corrupt("negative color", func(c []int) []int {
			c[int(data[1])%len(c)] = check.Uncolored
			return c
		})
		if b.NV() > 1 {
			corrupt("truncated colors", func(c []int) []int { return c[:len(c)-1] })
		}
		// Starve one checked constraint of a color class.
		for u := 0; u < b.NU(); u++ {
			if b.DegU(u) >= minDeg && b.DegU(u) >= 1 {
				corrupt("monochromatic constraint", func(c []int) []int {
					for _, v := range b.NbrU(u) {
						c[v] = check.Red
					}
					return c
				})
				break
			}
		}
	})
}

// FuzzTwoColoring drives ProperColoring with palette 2: a BFS layering is a
// proper 2-coloring exactly when the graph is bipartite, so the verifier's
// verdict on the BFS labels must match the odd-cycle check, and corruptions
// of an accepted coloring must always be rejected.
func FuzzTwoColoring(f *testing.F) {
	f.Add([]byte{6, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0}) // even cycle
	f.Add([]byte{5, 0, 1, 1, 2, 2, 0})                   // odd cycle
	f.Add([]byte{9, 0, 3, 0, 4, 1, 4, 2, 5, 3, 6, 4, 7}) // forest
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		n := 1 + int(data[0])%16
		data = data[1:]
		nEdges := len(data) / 2
		if nEdges > 48 {
			nEdges = 48
		}
		var edges [][2]int
		for i := 0; i < nEdges; i++ {
			u := int(data[2*i]) % n
			v := int(data[2*i+1]) % n
			if u != v {
				edges = append(edges, [2]int{u, v})
			}
		}
		g, err := graph.FromEdges(n, edges)
		if err != nil {
			t.Fatalf("in-range FromEdges failed: %v", err)
		}

		// BFS layering and an odd-cycle witness check, independent of the
		// verifier's own traversal.
		colors := make([]int, n)
		for i := range colors {
			colors[i] = -1
		}
		bipartite := true
		var queue []int
		for s := 0; s < n; s++ {
			if colors[s] >= 0 {
				continue
			}
			colors[s] = 0
			queue = append(queue[:0], s)
			for len(queue) > 0 {
				v := queue[0]
				queue = queue[1:]
				for _, w := range g.Neighbors(v) {
					if colors[w] < 0 {
						colors[w] = 1 - colors[v]
						queue = append(queue, int(w))
					} else if colors[w] == colors[v] {
						bipartite = false
					}
				}
			}
		}

		err = check.ProperColoring(g, colors, 2)
		if (err == nil) != bipartite {
			t.Fatalf("verifier says err=%v but graph bipartite=%v", err, bipartite)
		}
		if err != nil {
			return
		}

		corrupt := func(name string, mutate func([]int) []int) {
			t.Helper()
			c := mutate(append([]int(nil), colors...))
			if check.ProperColoring(g, c, 2) == nil {
				t.Fatalf("corruption %q accepted: colors=%v", name, c)
			}
		}
		corrupt("out-of-range color", func(c []int) []int {
			c[n/2] = 2
			return c
		})
		corrupt("negative color", func(c []int) []int {
			c[0] = -1
			return c
		})
		if n > 1 {
			corrupt("truncated colors", func(c []int) []int { return c[:n-1] })
		}
		if g.M() > 0 {
			// Make some edge monochromatic.
			e := g.Edges()[0]
			corrupt("monochromatic edge", func(c []int) []int {
				c[e[0]] = c[e[1]]
				return c
			})
		}
	})
}
