package coloring

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/prob"
)

func properAndBounded(t *testing.T, g *graph.Graph, res *Result, maxColors int) {
	t.Helper()
	if err := Verify(g, res.Colors); err != nil {
		t.Fatal(err)
	}
	for v, c := range res.Colors {
		if c < 0 || c >= maxColors {
			t.Fatalf("node %d got color %d outside [0,%d)", v, c, maxColors)
		}
	}
}

func TestDeltaPlusOneOnPath(t *testing.T) {
	g := graph.PathGraph(50)
	res, err := DeltaPlusOne(g, local.SequentialEngine{}, local.Options{})
	if err != nil {
		t.Fatal(err)
	}
	properAndBounded(t, g, res, 3)
}

func TestDeltaPlusOneOnCycle(t *testing.T) {
	g := graph.Cycle(101)
	res, err := DeltaPlusOne(g, local.SequentialEngine{}, local.Options{})
	if err != nil {
		t.Fatal(err)
	}
	properAndBounded(t, g, res, 3)
}

func TestDeltaPlusOneOnRandomGraphs(t *testing.T) {
	src := prob.NewSource(11)
	for _, n := range []int{30, 120} {
		g := graph.RandomGraph(n, 0.1, src.Rand())
		res, err := DeltaPlusOne(g, local.SequentialEngine{}, local.Options{
			IDs: local.PermutationIDs(n, src.Fork(uint64(n))),
		})
		if err != nil {
			t.Fatal(err)
		}
		properAndBounded(t, g, res, g.MaxDeg()+1)
	}
}

func TestDeltaPlusOneOnComplete(t *testing.T) {
	g := graph.Complete(12)
	res, err := DeltaPlusOne(g, local.SequentialEngine{}, local.Options{})
	if err != nil {
		t.Fatal(err)
	}
	properAndBounded(t, g, res, 12)
}

func TestDeltaPlusOneEdgeless(t *testing.T) {
	g := graph.NewGraph(5)
	res, err := DeltaPlusOne(g, local.SequentialEngine{}, local.Options{})
	if err != nil {
		t.Fatal(err)
	}
	properAndBounded(t, g, res, 1)
	empty, err := DeltaPlusOne(graph.NewGraph(0), local.SequentialEngine{}, local.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if empty.Num != 0 {
		t.Error("empty graph should have empty palette")
	}
}

// TestEnginesAgreeOnColoring runs the coloring on the word loop, where KW
// nodes sleep between their subrounds, and on the boxed oracle, which calls
// every node every round: colors and Stats must agree. Under a fault plan
// the word loop calls every node every round too, and the outcome — colors
// or the self-check's error — must agree with the oracle's.
func TestEnginesAgreeOnColoring(t *testing.T) {
	g := graph.RandomGraph(60, 0.15, prob.NewSource(12).Rand())
	ids := local.PermutationIDs(g.N(), prob.NewSource(13))
	oracle := local.Overlay{Plane: local.PlaneBoxed}.On(local.SequentialEngine{})
	faults := &local.FaultPlan{Seed: 5, Drop: 0.05, Delay: 3}
	for _, fp := range []*local.FaultPlan{nil, faults} {
		ref, refErr := DeltaPlusOne(g, oracle, local.Options{IDs: ids, Faults: fp})
		if fp == nil && refErr != nil {
			t.Fatal(refErr)
		}
		engines := []struct {
			name string
			eng  local.Engine
		}{{"seq", local.SequentialEngine{}}, {"pool-2", local.WorkerPoolEngine{Workers: 2}}, {"pool-3", local.WorkerPoolEngine{Workers: 3}}}
		for _, e := range engines {
			res, err := DeltaPlusOne(g, e.eng, local.Options{IDs: ids, Faults: fp})
			if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
				t.Fatalf("%s (faults %v): err %v, oracle %v", e.name, fp != nil, err, refErr)
			}
			if err != nil {
				continue
			}
			if !slices.Equal(res.Colors, ref.Colors) {
				t.Errorf("%s (faults %v): colors differ from the oracle's", e.name, fp != nil)
			}
			if res.Stats != ref.Stats {
				t.Errorf("%s (faults %v): stats %+v, oracle %+v", e.name, fp != nil, res.Stats, ref.Stats)
			}
		}
	}
}

func TestRoundComplexityScaling(t *testing.T) {
	// Rounds should scale roughly like O(Δ log n), not like n: compare the
	// path on 100 and 10000 nodes.
	small, err := DeltaPlusOne(graph.PathGraph(100), local.SequentialEngine{}, local.Options{})
	if err != nil {
		t.Fatal(err)
	}
	big, err := DeltaPlusOne(graph.PathGraph(10000), local.SequentialEngine{}, local.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if big.Stats.Rounds > 4*small.Stats.Rounds {
		t.Errorf("rounds grew too fast: %d → %d for 100x nodes", small.Stats.Rounds, big.Stats.Rounds)
	}
}

func TestLinialSchedule(t *testing.T) {
	steps := linialSchedule(1<<20, 4)
	if len(steps) == 0 {
		t.Fatal("expected at least one Linial step for n = 2^20, Δ=4")
	}
	// Palette sizes must strictly shrink along the schedule.
	for i, st := range steps {
		if st.q*st.q >= st.k {
			t.Errorf("step %d does not shrink: K=%d q=%d", i, st.k, st.q)
		}
		if st.q < 4*st.l+1 {
			t.Errorf("step %d: q=%d < Δ·L+1=%d", i, st.q, 4*st.l+1)
		}
	}
	// log* behaviour: schedule length should be tiny.
	if len(steps) > 6 {
		t.Errorf("schedule suspiciously long: %d steps", len(steps))
	}
}

func TestKWSchedule(t *testing.T) {
	passes := kwSchedule(1000, 9)
	k := 1000
	for _, p := range passes {
		if p.k != k {
			t.Fatalf("pass K mismatch: %d vs %d", p.k, k)
		}
		groups := (k + 19) / 20
		k = groups * 10
	}
	if k != 10 {
		t.Errorf("final palette %d, want Δ+1=10", k)
	}
	if len(kwSchedule(5, 9)) != 0 {
		t.Error("no passes needed when K <= Δ+1")
	}
}

// estimateSink keeps the compiler from dropping the pinned call.
var estimateSink int

// TestEstimateRoundsZeroAllocs pins EstimateRounds at zero allocations and
// at the length of the schedules DeltaPlusOne builds as slices, from a
// one-node graph to Δ ≥ n and across Linial-only, KW-only and mixed
// schedules.
func TestEstimateRoundsZeroAllocs(t *testing.T) {
	for _, n := range []int{1, 2, 7, 100, 4000, 1 << 20} {
		for _, maxDeg := range []int{0, 1, 2, 5, 24, 150, 5000} {
			lin := linialSchedule(n, maxDeg)
			k := n
			if len(lin) > 0 {
				last := lin[len(lin)-1]
				k = last.q * last.q
			}
			want := 1 + len(lin) + 2*(maxDeg+1)*len(kwSchedule(k, maxDeg)) + 1
			if got := EstimateRounds(n, maxDeg); got != want {
				t.Errorf("EstimateRounds(%d, %d) = %d, schedules say %d", n, maxDeg, got, want)
			}
			if allocs := testing.AllocsPerRun(10, func() { estimateSink = EstimateRounds(n, maxDeg) }); allocs != 0 {
				t.Errorf("EstimateRounds(%d, %d) allocated %.0f times; want 0", n, maxDeg, allocs)
			}
		}
	}
	if got := EstimateRounds(0, 3); got != 0 {
		t.Errorf("EstimateRounds(0, 3) = %d, want 0 on an empty graph", got)
	}
}

// polyDigits and polyEval are the digit-slice form of linialStep.eval: the
// L low base-q digits of c, and Horner evaluation of that digit vector.
func polyDigits(c, q, l int) []int {
	d := make([]int, l)
	for i := 0; i < l; i++ {
		d[i] = c % q
		c /= q
	}
	return d
}

func polyEval(digits []int, x, q int) int {
	v := 0
	for i := len(digits) - 1; i >= 0; i-- {
		v = (v*x + digits[i]) % q
	}
	return v
}

func TestPolyEval(t *testing.T) {
	// p(x) = 2 + 3x + x² over GF(5); p(2) = 2+6+4 = 12 mod 5 = 2.
	if got := polyEval([]int{2, 3, 1}, 2, 5); got != 2 {
		t.Errorf("polyEval = %d, want 2", got)
	}
	d := polyDigits(7, 3, 3) // 7 = 1 + 2*3
	if d[0] != 1 || d[1] != 2 || d[2] != 0 {
		t.Errorf("polyDigits(7,3) = %v", d)
	}
	// eval reads the digits off the color itself; it must agree with the
	// digit-slice form on every step of real schedules, including the -1 an
	// unheard port leaves in a node's cache and colors wider than L digits.
	for _, sh := range []struct{ n, maxDeg int }{{1000, 3}, {100000, 10}, {1 << 20, 6}} {
		for _, st := range linialSchedule(sh.n, sh.maxDeg) {
			for c := -1; c < 3*st.k; c += 1 + c/50 {
				for x := 0; x < st.q; x++ {
					if got, want := st.eval(c, x), polyEval(polyDigits(c, st.q, st.l), x, st.q); got != want {
						t.Fatalf("step %+v: eval(%d, %d) = %d, digit form %d", st, c, x, got, want)
					}
				}
			}
		}
	}
}

func TestGreedyPick(t *testing.T) {
	used := make([]uint64, 8)
	if got := greedyPick(10, 3, []int32{10, 11}, used); got != 12 {
		t.Errorf("greedyPick = %d, want 12", got)
	}
	if got := greedyPick(0, 2, nil, used); got != 0 {
		t.Errorf("greedyPick = %d, want 0", got)
	}
	// Palettes past one bitmap word, with the scratch left dirty by the
	// previous call, colors outside the palette and an unheard port (-1).
	taken := []int32{-1, 5, 1000}
	for c := int32(300); c < 300+130; c++ {
		taken = append(taken, c)
	}
	if got := greedyPick(300, 200, taken, used); got != 430 {
		t.Errorf("greedyPick = %d, want 430", got)
	}
	if got := greedyPick(300, 130, taken[:len(taken)-1], used); got != 429 {
		t.Errorf("greedyPick = %d, want 429", got)
	}
}

func TestVerifyRejects(t *testing.T) {
	g := graph.PathGraph(3)
	if err := Verify(g, []int{0, 0, 1}); err == nil {
		t.Error("monochromatic edge should be rejected")
	}
	if err := Verify(g, []int{0, 1}); err == nil {
		t.Error("wrong length should be rejected")
	}
	if err := Verify(g, []int{0, 1, 0}); err != nil {
		t.Errorf("valid coloring rejected: %v", err)
	}
}

func TestPowerColoring(t *testing.T) {
	g := graph.PathGraph(30)
	res, err := PowerColoring(g, 2, local.SequentialEngine{}, local.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Distance-2 proper: check on the power graph.
	if err := Verify(g.Power(2), res.Colors); err != nil {
		t.Fatal(err)
	}
	if res.Num != g.Power(2).MaxDeg()+1 {
		t.Errorf("palette %d, want %d", res.Num, g.Power(2).MaxDeg()+1)
	}
}

func TestGreedySequential(t *testing.T) {
	g := graph.Complete(7)
	res := GreedySequential(g)
	if err := Verify(g, res.Colors); err != nil {
		t.Fatal(err)
	}
	if res.Num != 7 {
		t.Errorf("K7 greedy used %d colors, want 7", res.Num)
	}
}

// refGreedySequential is GreedySequential with a set of used colors per
// node: the reference the stamp-row rewrite must match color for color.
func refGreedySequential(g *graph.Graph) []int {
	colors := make([]int, g.N())
	for i := range colors {
		colors[i] = -1
	}
	for v := 0; v < g.N(); v++ {
		used := make(map[int]bool, g.Deg(v))
		for _, w := range g.Neighbors(v) {
			if c := colors[w]; c >= 0 {
				used[c] = true
			}
		}
		c := 0
		for used[c] {
			c++
		}
		colors[v] = c
	}
	return colors
}

func TestGreedySequentialMatchesReference(t *testing.T) {
	rng := prob.NewSource(41).Rand()
	graphs := map[string]*graph.Graph{
		"empty":    graph.NewGraph(0),
		"isolated": graph.NewGraph(5),
		"complete": graph.Complete(9),
		"cycle":    graph.Cycle(11),
		"sparse":   graph.RandomGraph(300, 0.02, rng),
		"dense":    graph.RandomGraph(120, 0.4, rng),
	}
	b, err := graph.RandomBipartiteLeftRegular(200, 400, 12, rng)
	if err != nil {
		t.Fatal(err)
	}
	graphs["B2"] = b.VPower(1)
	for name, g := range graphs {
		res := GreedySequential(g)
		want := refGreedySequential(g)
		num := 0
		for _, c := range want {
			num = max(num, c+1)
		}
		if !slices.Equal(res.Colors, want) || res.Num != num {
			t.Errorf("%s: greedy colors differ from the reference (Num %d, want %d)", name, res.Num, num)
		}
	}
}

// TestGreedySequentialAllocs pins the stamp row: the greedy allocates its
// color array, one scratch row and the result, however many nodes it
// colors (a set per node cost one allocation per node). The ceiling leaves
// one allocation of slack for the runtime's own, e.g. when a collection
// starts mid-run.
func TestGreedySequentialAllocs(t *testing.T) {
	for _, n := range []int{1_000, 20_000} {
		g := graph.RandomSparseGraph(n, 4*n, prob.NewSource(43).Rand())
		if allocs := testing.AllocsPerRun(10, func() { GreedySequential(g) }); allocs > 4 {
			t.Errorf("GreedySequential allocated %.0f times on %d nodes; want at most 4", allocs, n)
		}
	}
}

// hubGraph is a star of hub leaves with a path of tail nodes hanging off
// one leaf: Δ+1 exceeds smallPalette, and n exceeds Δ+1, so the schedule
// has Kuhn–Wattenhofer passes whose picks use the per-node bitmap.
func hubGraph(t *testing.T, hub, tail int) *graph.Graph {
	t.Helper()
	var edges [][2]int
	for v := 1; v <= hub+tail; v++ {
		u := 0
		if v > hub {
			u = v - 1
		}
		edges = append(edges, [2]int{u, v})
	}
	g, err := graph.FromEdges(1+hub+tail, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestDeltaPlusOneZeroAllocsPerRound pins the coloring program's rounds,
// Linial steps and Kuhn–Wattenhofer picks alike, at zero heap allocations:
// the same run cut off by two MaxRounds budgets allocates the same (GC
// off, as in internal/local's marginal pins). Each
// graph is also colored to completion, which self-checks properness. The
// slack absorbs runtime-internal noise; a per-round allocation per node
// would cost thousands here.
func TestDeltaPlusOneZeroAllocsPerRound(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"sparse", graph.RandomSparseGraph(2000, 6000, prob.NewSource(5).Rand())},
		{"hub", hubGraph(t, 300, 400)},
	}
	engines := []struct {
		name string
		eng  local.Engine
	}{{"seq", local.SequentialEngine{}}, {"pool", local.WorkerPoolEngine{Workers: 2}}}
	const slack = 16
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, gc := range graphs {
		total := EstimateRounds(gc.g.N(), gc.g.MaxDeg())
		lo, hi := 2, total-2
		for _, e := range engines {
			if _, err := DeltaPlusOne(gc.g, e.eng, local.Options{}); err != nil {
				t.Fatalf("%s/%s: %v", gc.name, e.name, err)
			}
			allocs := func(rounds int) uint64 {
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				if _, err := DeltaPlusOne(gc.g, e.eng, local.Options{MaxRounds: rounds}); err == nil {
					t.Fatalf("%s/%s: a %d-round budget of a %d-round schedule did not cut the run", gc.name, e.name, rounds, total)
				}
				runtime.ReadMemStats(&m1)
				return m1.Mallocs - m0.Mallocs
			}
			runtime.GC()
			if short, long := allocs(lo), allocs(hi); long > short+slack {
				t.Errorf("%s/%s: %d allocations at %d rounds, %d at %d; want ≈ 0 per round",
					gc.name, e.name, long, hi, short, lo)
			}
		}
	}
}

func TestColoringProperty(t *testing.T) {
	f := func(seed uint64) bool {
		src := prob.NewSource(seed)
		n := 20 + int(seed%40)
		g := graph.RandomGraph(n, 0.12, src.Rand())
		res, err := DeltaPlusOne(g, local.SequentialEngine{}, local.Options{
			IDs: local.PermutationIDs(n, src.Fork(1)),
		})
		if err != nil {
			return false
		}
		if Verify(g, res.Colors) != nil {
			return false
		}
		for _, c := range res.Colors {
			if c >= g.MaxDeg()+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
