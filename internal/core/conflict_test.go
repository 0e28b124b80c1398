package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/prob"
	"repro/internal/slocal"
)

// refConflictColoring is ConflictColoring as it was before the greedy path
// walked the conflict graph implicitly: it takes the materialized VPower(k)
// and colors it by simulation within simulationBudget and by
// GreedySequential beyond it.
func refConflictColoring(conflict *graph.Graph, eng local.Engine, trace *Trace, name string, hopFactor int) ([]int, int, error) {
	n := conflict.N()
	est := coloring.EstimateRounds(n, conflict.MaxDeg())
	work := int64(2*conflict.M()+n) * int64(est)
	if work <= simulationBudget {
		res, err := coloring.DeltaPlusOne(conflict, eng, local.Options{})
		if err != nil {
			return nil, 0, fmt.Errorf("core: %s coloring: %w", name, err)
		}
		trace.Add(name, res.Stats.Rounds*hopFactor)
		return res.Colors, res.Num, nil
	}
	res := coloring.GreedySequential(conflict)
	trace.Add(name, est*hopFactor)
	trace.Note("%s: centralized greedy coloring stood in for the simulation (n=%d, m=%d, est rounds=%d); palette %d ≤ Δ+1=%d",
		name, n, conflict.M(), est, res.Num, conflict.MaxDeg()+1)
	return res.Colors, conflict.MaxDeg() + 1, nil
}

// groupedInstance has nv/group disjoint variable groups, each fully
// covered by cover constraints: every variable's B² row is its group, but
// VPowerBound counts each group member once per shared constraint, so the
// bound overshoots the exact figures by the factor cover.
func groupedInstance(t *testing.T, nv, group, cover int) *graph.Bipartite {
	t.Helper()
	var edges [][2]int
	groups := nv / group
	for g := 0; g < groups; g++ {
		for c := 0; c < cover; c++ {
			for v := g * group; v < (g+1)*group; v++ {
				edges = append(edges, [2]int{g*cover + c, v})
			}
		}
	}
	b, err := graph.BipartiteFromEdges(groups*cover, nv, edges)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// withFreeVariables returns b with extra constraint-free variables
// appended to V.
func withFreeVariables(t *testing.T, b *graph.Bipartite, extra int) *graph.Bipartite {
	t.Helper()
	c, err := graph.BipartiteFromEdges(b.NU(), b.NV()+extra, b.Edges())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestConflictColoringMatchesReference is the differential test of the
// implicit greedy path: for k = 1 and 2, on every generator family, the
// colors, the palette and the trace (phases and notes) must equal the
// reference's on the materialized VPower(k), and the colors must be proper
// on it. The cases cover both sides of simulationBudget for each k and the
// instance whose bound overshoots the budget while its exact work fits (the
// greedy colors are discarded for the simulation).
func TestConflictColoringMatchesReference(t *testing.T) {
	must := func(b *graph.Bipartite, err error) *graph.Bipartite {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cases := []struct {
		name string
		b    *graph.Bipartite
		ks   []int
	}{
		{"empty", graph.NewBipartite(0, 0), []int{1, 2}},
		{"nv0", graph.NewBipartite(4, 0), []int{1, 2}},
		{"free-variables-only", graph.NewBipartite(0, 9), []int{1, 2}},
		{"leftregular-small", instance(t, 60, 200, 8, 1), []int{1, 2}},
		{"leftregular-free", withFreeVariables(t, instance(t, 40, 120, 6, 2), 15), []int{1, 2}},
		{"leftregular-b4-greedy", instance(t, 200, 800, 8, 3), []int{1, 2}},
		{"det-shape", graph.TruncateLeftDegrees(instance(t, 1000, 4000, 32, 4), 25), []int{1}},
		{"biregular", must(graph.RandomBipartiteBiregular(100, 400, 12, prob.NewSource(5).Rand())), []int{1, 2}},
		{"biregular-greedy", must(graph.RandomBipartiteBiregular(500, 2000, 20, prob.NewSource(6).Rand())), []int{1}},
		{"powerlaw", must(graph.RandomBipartitePowerLaw(150, 500, 2.5, 40, prob.NewSource(7).Rand())), []int{1, 2}},
		{"tree", must(graph.HighGirthTree(3, 5)), []int{1, 2}},
		{"star", must(graph.SubdividedStar(12)), []int{1, 2}},
		{"grouped-bound-overshoots", groupedInstance(t, 2000, 20, 8), []int{1}},
	}
	type side struct {
		k   int
		sim bool
	}
	seen := map[side]bool{}
	overshoot := false
	for _, tc := range cases {
		for _, k := range tc.ks {
			t.Run(fmt.Sprintf("%s/k%d", tc.name, k), func(t *testing.T) {
				conflict := tc.b.VPower(k)
				n := conflict.N()
				work := conflictWork(n, 2*conflict.M(), coloring.EstimateRounds(n, conflict.MaxDeg()))
				boundArcs, boundDeg := tc.b.VPowerBound(k)
				if conflictWork(n, boundArcs, coloring.EstimateRounds(n, boundDeg)) > simulationBudget && work <= simulationBudget {
					overshoot = true
				}
				seen[side{k, work <= simulationBudget}] = true

				var got, want Trace
				name, hop := "B2-coloring", 2
				if k == 2 {
					name, hop = "B4-coloring", 4
				}
				colors, num, err := ConflictColoring(tc.b, k, local.SequentialEngine{}, &got, name, hop)
				if err != nil {
					t.Fatal(err)
				}
				wantColors, wantNum, err := refConflictColoring(conflict, local.SequentialEngine{}, &want, name, hop)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(colors, wantColors) {
					t.Errorf("colors differ from the reference")
				}
				if num != wantNum {
					t.Errorf("palette %d, reference %d", num, wantNum)
				}
				if !slices.Equal(got.Phases, want.Phases) || !slices.Equal(got.Notes, want.Notes) {
					t.Errorf("trace %+v, reference %+v", got, want)
				}
				if err := slocal.CheckConflictColoring(conflict, colors); err != nil {
					t.Error(err)
				}
			})
		}
	}
	for _, k := range []int{1, 2} {
		for _, sim := range []bool{true, false} {
			if !seen[side{k, sim}] {
				t.Errorf("no case with k=%d on the simulated=%v side of simulationBudget", k, sim)
			}
		}
	}
	if !overshoot {
		t.Error("no case whose bound exceeds simulationBudget while its exact work fits")
	}
}

// TestConflictColoringAllocs pins the greedy path's footprint: it never
// materializes the conflict graph, so its allocations are a small constant
// and its bytes grow with the nodes of B, not with B²'s arcs. Both sizes
// (10× apart) take the greedy path with ~150 B² arcs per variable, 600
// bytes per variable as an int32 edge array; the walk's stamp row, the
// row buffer, the degree counts, the colors and the palette take 21–23.
// The allocations, 16 at both sizes with the collector off, are the
// walk's, the greedy's and the trace's; the round estimate allocates
// none. Under -race the trace note's fmt call reads 1–6 allocations
// instead of 1, so the ceiling there has room for that.
func TestConflictColoringAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ceiling := 16.0
	if raceEnabled {
		ceiling += 8
	}
	for _, nu := range []int{400, 4000} {
		b := graph.TruncateLeftDegrees(instance(t, nu, 4*nu, 32, 9), 25)
		var trace Trace
		run := func() {
			trace = Trace{}
			if _, _, err := ConflictColoring(b, 1, local.SequentialEngine{}, &trace, "B2-coloring", 2); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if len(trace.Notes) != 1 {
			t.Fatalf("NU %d: want the greedy path (one trace note), got %+v", nu, trace)
		}
		allocs := testing.AllocsPerRun(3, run)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		perVar := float64(after.TotalAlloc-before.TotalAlloc) / float64(b.NV())
		if allocs > ceiling {
			t.Errorf("NU %d: greedy conflict coloring allocated %.0f times; want at most %.0f", nu, allocs, ceiling)
		}
		if perVar > 24 {
			t.Errorf("NU %d: greedy conflict coloring allocated %.1f bytes per variable; want at most 24", nu, perVar)
		}
	}
}
