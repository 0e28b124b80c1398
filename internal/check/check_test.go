package check

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/graph"
)

func mustBipartite(t *testing.T, nu, nv int, edges [][2]int) *graph.Bipartite {
	t.Helper()
	b, err := graph.BipartiteFromEdges(nu, nv, edges)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestWeakSplit(t *testing.T) {
	b := mustBipartite(t, 2, 3, [][2]int{{0, 0}, {0, 1}, {1, 1}, {1, 2}})
	if err := WeakSplit(b, []int{Red, Blue, Red}, 0); err != nil {
		t.Errorf("valid splitting rejected: %v", err)
	}
	if err := WeakSplit(b, []int{Red, Red, Red}, 0); err == nil {
		t.Error("monochromatic constraint accepted")
	}
	// Threshold waives small constraints.
	if err := WeakSplit(b, []int{Red, Red, Red}, 3); err != nil {
		t.Errorf("threshold should waive degree-2 constraints: %v", err)
	}
	if err := WeakSplit(b, []int{Red, Blue}, 0); err == nil {
		t.Error("wrong length accepted")
	}
	if err := WeakSplit(b, []int{Red, 5, Blue}, 0); err == nil {
		t.Error("invalid color accepted")
	}
}

// fullScanWeakSplit is WeakSplit reading every color of every checked
// constraint before its verdict: the reference for the early-exit scan.
func fullScanWeakSplit(b *graph.Bipartite, colors []int, minDeg int) error {
	if len(colors) != b.NV() {
		return fmt.Errorf("check: %d colors for %d variable nodes", len(colors), b.NV())
	}
	for v, c := range colors {
		if c != Red && c != Blue {
			return fmt.Errorf("check: variable %d has invalid color %d", v, c)
		}
	}
	for u := 0; u < b.NU(); u++ {
		if b.DegU(u) < minDeg {
			continue
		}
		var red, blue bool
		for _, v := range b.NbrU(u) {
			red = red || colors[v] == Red
			blue = blue || colors[v] == Blue
		}
		if !red || !blue {
			lack := "blue"
			if !red {
				lack = "red"
			}
			return fmt.Errorf("check: constraint %d (degree %d) lacks a %s neighbor", u, b.DegU(u), lack)
		}
	}
	return nil
}

// TestWeakSplitMatchesFullScan runs WeakSplit against the full-scan
// reference on seeded random instances with degrees from 1 to 40, under
// colorings from monochromatic to fair and thresholds below, inside and
// above the degree range: both must return nil or the same error text.
func TestWeakSplitMatchesFullScan(t *testing.T) {
	var failures, passes int
	for seed := uint64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 11))
		b, err := graph.RandomBipartitePowerLaw(60, 200, 2.2, 40, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, pBlue := range []float64{0, 0.01, 0.05, 0.2, 0.5, 1} {
			colors := make([]int, b.NV())
			for v := range colors {
				if rng.Float64() < pBlue {
					colors[v] = Blue
				}
			}
			for _, minDeg := range []int{0, 1, 2, b.MinDegU() + 1, 10, b.MaxDegU(), b.MaxDegU() + 1} {
				got, want := WeakSplit(b, colors, minDeg), fullScanWeakSplit(b, colors, minDeg)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("seed %d, P(blue) %.2f, minDeg %d: WeakSplit = %v, full scan = %v", seed, pBlue, minDeg, got, want)
				}
				if want == nil {
					passes++
				} else {
					failures++
				}
			}
		}
	}
	if failures == 0 || passes == 0 {
		t.Fatalf("%d rejected and %d accepted colorings: want both verdicts covered", failures, passes)
	}
}

func TestMulticolorCover(t *testing.T) {
	b := mustBipartite(t, 1, 4, [][2]int{{0, 0}, {0, 1}, {0, 2}, {0, 3}})
	if err := MulticolorCover(b, []int{0, 1, 2, 0}, 3, 1, 3); err != nil {
		t.Errorf("valid cover rejected: %v", err)
	}
	if err := MulticolorCover(b, []int{0, 1, 0, 0}, 3, 1, 3); err == nil {
		t.Error("insufficient distinct colors accepted")
	}
	if err := MulticolorCover(b, []int{0, 1, 0, 0}, 3, 5, 3); err != nil {
		t.Errorf("threshold should waive the constraint: %v", err)
	}
	if err := MulticolorCover(b, []int{0, 1, 3, 0}, 3, 1, 2); err == nil {
		t.Error("out-of-palette color accepted")
	}
	if err := MulticolorCover(b, []int{0}, 3, 1, 2); err == nil {
		t.Error("wrong length accepted")
	}
}

func TestCLambdaSplit(t *testing.T) {
	b := mustBipartite(t, 1, 4, [][2]int{{0, 0}, {0, 1}, {0, 2}, {0, 3}})
	// λ = 0.5, deg 4 → at most 2 per color.
	if err := CLambdaSplit(b, []int{0, 0, 1, 1}, 2, 0.5, 0); err != nil {
		t.Errorf("valid splitting rejected: %v", err)
	}
	if err := CLambdaSplit(b, []int{0, 0, 0, 1}, 2, 0.5, 0); err == nil {
		t.Error("overloaded color accepted")
	}
	if err := CLambdaSplit(b, []int{0, 0, 0, 1}, 2, 0.5, 10); err != nil {
		t.Errorf("threshold should waive: %v", err)
	}
	if err := CLambdaSplit(b, []int{0, 0, 2, 1}, 2, 0.5, 0); err == nil {
		t.Error("out-of-palette accepted")
	}
	if err := CLambdaSplit(b, []int{0}, 2, 0.5, 0); err == nil {
		t.Error("wrong length accepted")
	}
	// Ceiling boundary: λ·d = 2.0 exactly ⇒ limit 2; λ·d = 1.9 ⇒ limit 2.
	if got := ceilMul(0.5, 4); got != 2 {
		t.Errorf("ceilMul(0.5,4) = %d", got)
	}
	if got := ceilMul(0.475, 4); got != 2 {
		t.Errorf("ceilMul(0.475,4) = %d", got)
	}
}

func TestUniformSplit(t *testing.T) {
	g := graph.Complete(4) // degree 3 each
	// ε = 0.34: red-degree must be within [0.48, 2.52], i.e. 1 or 2.
	if err := UniformSplit(g, []int{Red, Red, Blue, Blue}, 0.34, 0); err != nil {
		t.Errorf("balanced split rejected: %v", err)
	}
	if err := UniformSplit(g, []int{Red, Red, Red, Red}, 0.34, 0); err == nil {
		t.Error("all-red accepted")
	}
	if err := UniformSplit(g, []int{Red, Red, Red, Red}, 0.34, 10); err != nil {
		t.Errorf("threshold should waive: %v", err)
	}
	if err := UniformSplit(g, []int{Red, Red}, 0.34, 0); err == nil {
		t.Error("wrong length accepted")
	}
	if err := UniformSplit(g, []int{Red, 7, Blue, Blue}, 0.34, 0); err == nil {
		t.Error("invalid color accepted")
	}
}

func TestSinklessOrientation(t *testing.T) {
	g := graph.Cycle(4)
	edges := g.Edges()
	// Orient the cycle consistently: no sinks.
	toward := make([]bool, len(edges))
	// Cycle(4) edges sorted: {0,1},{0,3},{1,2},{2,3}. Orient 0→1,3→0,1→2,2→3.
	toward[0] = true  // 0→1
	toward[1] = false // 3→0
	toward[2] = true  // 1→2
	toward[3] = true  // 2→3
	if err := SinklessOrientation(g, edges, toward, 1); err != nil {
		t.Errorf("valid orientation rejected: %v", err)
	}
	// Make node 3 a sink: 0→3 does not help node 3... flip 2→3 and 3→0.
	toward[1] = true // 0→3
	toward[3] = true // 2→3
	// Now node 3 has only incoming edges.
	if err := SinklessOrientation(g, edges, toward, 1); err == nil {
		t.Error("sink accepted")
	}
	if err := SinklessOrientation(g, edges, toward[:2], 1); err == nil {
		t.Error("length mismatch accepted")
	}
	// Threshold waives low-degree nodes.
	if err := SinklessOrientation(g, edges, toward, 3); err != nil {
		t.Errorf("threshold should waive degree-2 nodes: %v", err)
	}
}

func TestMIS(t *testing.T) {
	g := graph.PathGraph(4)
	if err := MIS(g, []bool{true, false, true, false}); err != nil {
		t.Errorf("valid MIS rejected: %v", err)
	}
	if err := MIS(g, []bool{true, true, false, true}); err == nil {
		t.Error("dependent set accepted")
	}
	if err := MIS(g, []bool{true, false, false, true}); err != nil {
		t.Errorf("{0,3} is a valid MIS of P4: %v", err)
	}
	if err := MIS(g, []bool{true, false, false, false}); err == nil {
		t.Error("non-maximal set accepted (node 3 uncovered)")
	}
	if err := MIS(g, []bool{true, false}); err == nil {
		t.Error("wrong length accepted")
	}
}

func TestDegreeSplitting(t *testing.T) {
	m, err := graph.MultigraphFromEdges(2, [][2]int{{0, 1}, {0, 1}, {0, 1}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	balanced := &graph.Orientation{Toward: []bool{true, true, false, false}}
	if err := DegreeSplitting(m, balanced, func(int) float64 { return 0 }); err != nil {
		t.Errorf("balanced orientation rejected: %v", err)
	}
	skewed := &graph.Orientation{Toward: []bool{true, true, true, false}}
	if err := DegreeSplitting(m, skewed, func(int) float64 { return 1 }); err == nil {
		t.Error("discrepancy 2 accepted against bound 1")
	}
	if err := DegreeSplitting(m, &graph.Orientation{Toward: []bool{true}}, func(int) float64 { return 9 }); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestProperColoring(t *testing.T) {
	g := graph.Cycle(4)
	if err := ProperColoring(g, []int{0, 1, 0, 1}, 2); err != nil {
		t.Errorf("valid coloring rejected: %v", err)
	}
	if err := ProperColoring(g, []int{0, 1, 0, 0}, 2); err == nil {
		t.Error("monochromatic edge accepted")
	}
	if err := ProperColoring(g, []int{0, 1, 0, 2}, 2); err == nil {
		t.Error("out-of-palette accepted")
	}
	if err := ProperColoring(g, []int{0, 1}, 2); err == nil {
		t.Error("wrong length accepted")
	}
}
