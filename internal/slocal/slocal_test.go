package slocal

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/coloring"
	"repro/internal/derand"
	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/prob"
)

func TestOrderSortsByColorThenIndex(t *testing.T) {
	order := Order([]int{2, 0, 1, 0})
	want := []int{1, 3, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// refOrder is Order as a comparison sort: ascending by (color, index).
func refOrder(colors []int) []int {
	order := make([]int, len(colors))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ca, cb := colors[order[a]], colors[order[b]]
		if ca != cb {
			return ca < cb
		}
		return order[a] < order[b]
	})
	return order
}

// TestOrderMatchesSortReference pins the counting sort against the
// comparison sort: random colorings with many ties, one class, an empty
// input, and colors spread wider than the counting sort's range (negative
// and extreme values), which take the stable-sort fallback.
func TestOrderMatchesSortReference(t *testing.T) {
	rng := prob.NewSource(31).Rand()
	cases := map[string][]int{
		"empty":     {},
		"single":    {7},
		"one class": {3, 3, 3, 3, 3},
		"wide":      {1 << 40, -5, 0, 1 << 40, -5, math.MaxInt, math.MinInt, 0},
	}
	for i, n := range []int{2, 10, 100, 1000} {
		for _, palette := range []int{1, 2, n / 2, n} {
			colors := make([]int, n)
			for v := range colors {
				colors[v] = rng.IntN(max(palette, 1))
			}
			cases[fmt.Sprintf("random-%d/n%d/palette%d", i, n, palette)] = colors
		}
		shifted := make([]int, n)
		for v := range shifted {
			shifted[v] = rng.IntN(n) - n/2
		}
		cases[fmt.Sprintf("negative/n%d", n)] = shifted
	}
	for name, colors := range cases {
		if got, want := Order(colors), refOrder(colors); !slices.Equal(got, want) {
			t.Errorf("%s: Order(%v) = %v, want %v", name, colors, got, want)
		}
	}
}

func TestRounds(t *testing.T) {
	if Rounds(10, 2) != 50 {
		t.Errorf("Rounds(10,2) = %d, want 50", Rounds(10, 2))
	}
	if Rounds(0, 2) != 0 {
		t.Error("zero classes cost zero rounds")
	}
}

func TestCheckConflictColoring(t *testing.T) {
	g := graph.PathGraph(3)
	if err := CheckConflictColoring(g, []int{0, 1, 0}); err != nil {
		t.Errorf("proper coloring rejected: %v", err)
	}
	if err := CheckConflictColoring(g, []int{0, 0, 1}); err == nil {
		t.Error("improper coloring accepted")
	}
	if err := CheckConflictColoring(g, []int{0, 1}); err == nil {
		t.Error("wrong length accepted")
	}
}

// TestCompilePipeline runs the full Lemma 2.1 pipeline at substrate level:
// color B² with the LOCAL coloring program, then execute the derandomized
// weak splitting in color-class order.
func TestCompilePipeline(t *testing.T) {
	rng := prob.NewSource(20).Rand()
	b, err := graph.RandomBipartiteLeftRegular(50, 70, 15, rng)
	if err != nil {
		t.Fatal(err)
	}
	conflict := b.VPower(1) // B² restricted to the variable side
	colRes, err := coloring.DeltaPlusOne(conflict, local.SequentialEngine{}, local.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckConflictColoring(conflict, colRes.Colors); err != nil {
		t.Fatal(err)
	}
	vtc := make([][]int32, b.NV())
	for v := range vtc {
		vtc[v] = b.NbrV(v)
	}
	degs := make([]int, b.NU())
	for u := range degs {
		degs[u] = b.DegU(u)
	}
	est := derand.NewWeakSplitEstimator(vtc, degs)
	res, err := CompileGreedy(est, colRes.Colors, colRes.Num, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != colRes.Num*5 {
		t.Errorf("round accounting %d, want %d", res.Rounds, colRes.Num*5)
	}
	for u := 0; u < b.NU(); u++ {
		var red, blue bool
		for _, v := range b.NbrU(u) {
			if res.Labels[v] == derand.Red {
				red = true
			} else {
				blue = true
			}
		}
		if !red || !blue {
			t.Fatalf("constraint %d not weakly split", u)
		}
	}
}

func TestCompileGreedyValidation(t *testing.T) {
	b, _ := graph.BipartiteFromEdges(1, 3, [][2]int{{0, 0}, {0, 1}, {0, 2}})
	vtc := make([][]int32, 3)
	for v := range vtc {
		vtc[v] = b.NbrV(v)
	}
	est := derand.NewWeakSplitEstimator(vtc, []int{3})
	if _, err := CompileGreedy(est, []int{0, 1}, 2, 2); err == nil {
		t.Error("mismatched coloring length should error")
	}
}
