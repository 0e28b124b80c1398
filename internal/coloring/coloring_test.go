package coloring

import (
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

func TestEnginesAgreeOnColoring(t *testing.T) {
	g := graph.RandomGraph(60, 0.15, prob.NewSource(12).Rand())
	ids := local.PermutationIDs(g.N(), prob.NewSource(13))
	seqRes, err := DeltaPlusOne(g, local.SequentialEngine{}, local.Options{IDs: ids})
	if err != nil {
		t.Fatal(err)
	}
	poolRes, err := DeltaPlusOne(g, local.WorkerPoolEngine{Workers: 3}, local.Options{IDs: ids})
	if err != nil {
		t.Fatal(err)
	}
	for v := range seqRes.Colors {
		if seqRes.Colors[v] != poolRes.Colors[v] {
			t.Fatalf("engines disagree at node %d", v)
		}
	}
	if seqRes.Stats != poolRes.Stats {
		t.Errorf("stats differ: %+v vs %+v", seqRes.Stats, poolRes.Stats)
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

func TestPolyEval(t *testing.T) {
	// p(x) = 2 + 3x + x² over GF(5); p(2) = 2+6+4 = 12 mod 5 = 2.
	if got := polyEval([]int{2, 3, 1}, 2, 5); got != 2 {
		t.Errorf("polyEval = %d, want 2", got)
	}
	d := polyDigits(7, 3, 3) // 7 = 1 + 2*3
	if d[0] != 1 || d[1] != 2 || d[2] != 0 {
		t.Errorf("polyDigits(7,3) = %v", d)
	}
}

func TestGreedyPick(t *testing.T) {
	if got := greedyPick(10, 3, []int{10, 11}); got != 12 {
		t.Errorf("greedyPick = %d, want 12", got)
	}
	if got := greedyPick(0, 2, nil); got != 0 {
		t.Errorf("greedyPick = %d, want 0", got)
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
