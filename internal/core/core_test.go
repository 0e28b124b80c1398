package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/check"
	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/prob"
)

// instance builds a left-regular random bipartite weak splitting instance.
func instance(t *testing.T, nu, nv, d int, seed uint64) *graph.Bipartite {
	t.Helper()
	b, err := graph.RandomBipartiteLeftRegular(nu, nv, d, prob.NewSource(seed).Rand())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestZeroRoundRandom(t *testing.T) {
	// δ = 20 ≥ 2·log2(180) ≈ 15: succeeds w.h.p.
	b := instance(t, 80, 100, 20, 1)
	res, err := ZeroRoundRandomRetry(b, prob.NewSource(2), 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := check.WeakSplit(b, res.Colors, 0); err != nil {
		t.Fatal(err)
	}
	if res.Trace.Rounds() != 0 {
		t.Errorf("zero-round algorithm charged %d rounds", res.Trace.Rounds())
	}
}

func TestZeroRoundRandomFailsOnTinyDegrees(t *testing.T) {
	// Degree-2 constraints fail with constant probability; over many
	// constraints at least one failure is near-certain, and the verifier
	// must catch it at least sometimes. We only check the error path wiring:
	// with 1 attempt allowed on a hard instance, either outcome is legal,
	// but across 64 seeds at least one must fail.
	b := instance(t, 200, 20, 2, 3)
	failed := false
	for seed := uint64(0); seed < 64 && !failed; seed++ {
		if _, err := ZeroRoundRandom(b, prob.NewSource(seed)); err != nil {
			failed = true
		}
	}
	if !failed {
		t.Error("expected at least one verification failure on degree-2 instance")
	}
}

func TestBasicDerandomized(t *testing.T) {
	b := instance(t, 60, 80, 16, 4) // δ = 16 ≥ 2·log2(140) ≈ 14.3
	res, err := BasicDerandomized(b, local.SequentialEngine{})
	if err != nil {
		t.Fatal(err)
	}
	if err := check.WeakSplit(b, res.Colors, 0); err != nil {
		t.Fatal(err)
	}
	if res.Trace.Rounds() <= 0 {
		t.Error("expected positive round accounting")
	}
}

func TestBasicDerandomizedRejectsLowDegree(t *testing.T) {
	b := instance(t, 50, 50, 3, 5)
	if _, err := BasicDerandomized(b, local.SequentialEngine{}); err == nil {
		t.Fatal("δ = 3 should fail the potential precondition")
	}
}

func TestBasicDerandomizedEmptyInstances(t *testing.T) {
	empty := graph.NewBipartite(0, 0)
	if _, err := BasicDerandomized(empty, local.SequentialEngine{}); err != nil {
		t.Errorf("empty instance should trivially succeed: %v", err)
	}
	impossible := graph.NewBipartite(1, 0)
	if _, err := BasicDerandomized(impossible, local.SequentialEngine{}); err == nil {
		t.Error("constraint with no variables must be rejected")
	}
}

func TestTruncatedDerandomized(t *testing.T) {
	b := instance(t, 60, 90, 40, 6)
	res, err := TruncatedDerandomized(b, local.SequentialEngine{})
	if err != nil {
		t.Fatal(err)
	}
	if err := check.WeakSplit(b, res.Colors, 0); err != nil {
		t.Fatal(err)
	}
	// Degree below 2·log n must be rejected.
	low := instance(t, 60, 90, 5, 7)
	if _, err := TruncatedDerandomized(low, local.SequentialEngine{}); err == nil {
		t.Error("δ = 5 should be rejected")
	}
}

func TestDRRITrajectories(t *testing.T) {
	t.Parallel()
	// Lemma 2.4: δ_k > ((1-ε)/2)^k δ - 2 and r_k < ((1+ε)/2)^k r + 3.
	b, err := graph.RandomBipartiteBiregular(128, 128, 64, prob.NewSource(8).Rand())
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	eps := 1.0 / 3.0
	for _, kind := range []SplitterKind{SplitterApproxDet, SplitterApproxRand, SplitterEulerian} {
		res, err := DegreeRankReductionI(b, k, eps, kind, prob.NewSource(9))
		if err != nil {
			t.Fatal(err)
		}
		delta0, r0 := float64(res.MinDegs[0]), float64(res.Ranks[0])
		for i := 1; i <= k; i++ {
			lower := math.Pow((1-eps)/2, float64(i))*delta0 - 2
			upper := math.Pow((1+eps)/2, float64(i))*r0 + 3
			if float64(res.MinDegs[i]) <= lower {
				t.Errorf("%v iter %d: δ_k = %d ≤ bound %.1f", kind, i, res.MinDegs[i], lower)
			}
			if float64(res.Ranks[i]) >= upper {
				t.Errorf("%v iter %d: r_k = %d ≥ bound %.1f", kind, i, res.Ranks[i], upper)
			}
		}
	}
}

func TestDRRIValidation(t *testing.T) {
	b := instance(t, 10, 10, 4, 10)
	if _, err := DegreeRankReductionI(b, -1, 0.3, SplitterApproxDet, nil); err == nil {
		t.Error("negative iterations should error")
	}
	if _, err := DegreeRankReductionI(b, 1, 0.3, SplitterApproxRand, nil); err == nil {
		t.Error("randomized splitter without source should error")
	}
}

func TestDRRIIRankHalving(t *testing.T) {
	// Lemma 2.6: rank after ⌈log r⌉ iterations is exactly 1, and each
	// iteration satisfies r_{k+1} = ⌈r_k/2⌉ for the max; the min degree
	// shrinks by at most half plus one.
	b, err := graph.RandomBipartiteBiregular(60, 40, 24, prob.NewSource(11).Rand())
	if err != nil {
		t.Fatal(err)
	}
	r0 := b.Rank()
	k := prob.CeilLog2(r0)
	res, err := DegreeRankReductionII(b, k)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ranks[k] != 1 {
		t.Fatalf("rank after ⌈log r⌉ = %d iterations is %d, want 1", k, res.Ranks[k])
	}
	for i := 1; i <= k; i++ {
		if res.Ranks[i] > (res.Ranks[i-1]+1)/2 {
			t.Errorf("iteration %d: rank %d → %d, exceeds ⌈r/2⌉", i, res.Ranks[i-1], res.Ranks[i])
		}
		// Eulerian splitter: a constraint loses at most ⌈pairs/2⌉+1 edges,
		// so min degree at least halves minus one.
		if res.MinDegs[i] < res.MinDegs[i-1]/2-1 {
			t.Errorf("iteration %d: min degree fell too fast: %d → %d", i, res.MinDegs[i-1], res.MinDegs[i])
		}
	}
	if _, err := DegreeRankReductionII(b, -2); err == nil {
		t.Error("negative iterations should error")
	}
}

func TestSixRSplitSmallDegrees(t *testing.T) {
	// δ = 18, r = 3 satisfies δ ≥ 6r while δ < 2·log n ≈ 21.6; the DRR-II
	// path is exercised.
	b, err := graph.RandomBipartiteBiregular(256, 1536, 18, prob.NewSource(12).Rand())
	if err != nil {
		t.Fatal(err)
	}
	if r := b.Rank(); b.MinDegU() < 6*r {
		t.Fatalf("instance does not satisfy δ ≥ 6r: δ=%d r=%d", b.MinDegU(), r)
	}
	if float64(b.MinDegU()) >= 2*log2n(b) {
		t.Fatalf("instance should have δ < 2·log n to exercise DRR-II (δ=%d, 2logn=%.1f)",
			b.MinDegU(), 2*log2n(b))
	}
	res, err := SixRSplit(b, SixROptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := check.WeakSplit(b, res.Colors, 0); err != nil {
		t.Fatal(err)
	}
}

func TestSixRSplitLargeDegrees(t *testing.T) {
	t.Parallel()
	// δ = 30 ≥ 2·log2(190) ≈ 15.2 and r small: the Theorem 2.5 branch.
	b, err := graph.RandomBipartiteBiregular(30, 160, 30, prob.NewSource(13).Rand())
	if err != nil {
		t.Fatal(err)
	}
	if b.MinDegU() < 6*b.Rank() {
		t.Skip("instance too irregular for the 6r precondition")
	}
	res, err := SixRSplit(b, SixROptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := check.WeakSplit(b, res.Colors, 0); err != nil {
		t.Fatal(err)
	}
	// Randomized variant too.
	resR, err := SixRSplit(b, SixROptions{Source: prob.NewSource(14)})
	if err != nil {
		t.Fatal(err)
	}
	if err := check.WeakSplit(b, resR.Colors, 0); err != nil {
		t.Fatal(err)
	}
}

// TestShatterAllocs pins that Shatter draws its per-variable coins without
// per-variable objects: its allocations (the outcome and its slices) do not
// grow with NV. A stream per variable (two heap objects) would cost 40,000
// allocations at NV 20,000; the slack of 4 absorbs the runtime's own.
func TestShatterAllocs(t *testing.T) {
	measure := func(nv int) float64 {
		b := instance(t, nv/4, nv, 24, 16)
		src := prob.NewSource(17)
		return testing.AllocsPerRun(5, func() { Shatter(b, src) })
	}
	small, large := measure(400), measure(20000)
	if large > small+4 {
		t.Errorf("Shatter allocated %.0f times at NV 20000, %.0f at NV 400; want no growth", large, small)
	}
}

func TestSixRSplitRejectsBadRatio(t *testing.T) {
	b := instance(t, 20, 10, 6, 15) // rank will exceed δ/6
	if b.MinDegU() >= 6*b.Rank() {
		t.Skip("instance accidentally satisfies 6r")
	}
	if _, err := SixRSplit(b, SixROptions{}); err == nil {
		t.Error("δ < 6r must be rejected")
	}
}

func TestShatterBasics(t *testing.T) {
	b := instance(t, 100, 150, 24, 16)
	sh := Shatter(b, prob.NewSource(17))
	if sh.Rounds != 3 {
		t.Errorf("shattering costs O(1) rounds, got %d", sh.Rounds)
	}
	// Every uncolored-marked variable must be Uncolored etc.
	reds, blues, unc := 0, 0, 0
	for _, c := range sh.Colors {
		switch c {
		case Red:
			reds++
		case Blue:
			blues++
		case Uncolored:
			unc++
		default:
			t.Fatalf("invalid trit %d", c)
		}
	}
	if reds == 0 || blues == 0 || unc == 0 {
		t.Errorf("degenerate shattering: %d red %d blue %d uncolored", reds, blues, unc)
	}
	// Unsatisfied flags must agree with a recount.
	for u := 0; u < b.NU(); u++ {
		var red, blue bool
		for _, v := range b.NbrU(u) {
			switch sh.Colors[v] {
			case Red:
				red = true
			case Blue:
				blue = true
			}
		}
		if sh.UnsatU[u] != !(red && blue) {
			t.Fatalf("unsat flag wrong at %d", u)
		}
	}
}

func TestShatterUncoloredFraction(t *testing.T) {
	t.Parallel()
	// After uncoloring, every constraint has ≥ 1/4 of its neighbors
	// uncolored (the δ_H ≥ δ/4 argument of Theorem 1.2).
	b := instance(t, 120, 200, 32, 18)
	sh := Shatter(b, prob.NewSource(19))
	for u := 0; u < b.NU(); u++ {
		unc := 0
		for _, v := range b.NbrU(u) {
			if sh.Colors[v] == Uncolored {
				unc++
			}
		}
		if 4*unc < b.DegU(u) {
			t.Fatalf("constraint %d has only %d/%d uncolored neighbors", u, unc, b.DegU(u))
		}
	}
}

func TestShatterResidual(t *testing.T) {
	b := instance(t, 60, 100, 8, 20)
	sh := Shatter(b, prob.NewSource(21))
	h, origU, origV := sh.Residual(b)
	for i, u := range origU {
		if !sh.UnsatU[u] {
			t.Fatalf("residual U node %d (orig %d) is satisfied", i, u)
		}
	}
	for i, v := range origV {
		if sh.Colors[v] != Uncolored {
			t.Fatalf("residual V node %d (orig %d) is colored", i, v)
		}
	}
	if h.NU() != len(origU) || h.NV() != len(origV) {
		t.Fatal("residual size mismatch")
	}
}

func TestLemma29UnsatisfiedProbability(t *testing.T) {
	t.Parallel()
	// Monte-Carlo estimate of Pr[u unsatisfied] for Δ = 48, r modest: it
	// must be far below a fixed small constant (the paper proves e^{-ηΔ}).
	b, err := graph.RandomBipartiteBiregular(64, 512, 48, prob.NewSource(22).Rand())
	if err != nil {
		t.Fatal(err)
	}
	const trials = 40
	bad := 0
	total := 0
	for trial := 0; trial < trials; trial++ {
		sh := Shatter(b, prob.NewSource(uint64(1000+trial)))
		for _, x := range sh.UnsatU {
			total++
			if x {
				bad++
			}
		}
	}
	frac := float64(bad) / float64(total)
	if frac > 0.01 {
		t.Errorf("unsatisfied fraction %.4f too high for Δ=48", frac)
	}
}

func TestRandomizedSplitLargeDelta(t *testing.T) {
	b := instance(t, 80, 100, 24, 23) // δ = 24 > 2·log2(180)
	res, err := RandomizedSplit(b, prob.NewSource(24), RandomizedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := check.WeakSplit(b, res.Colors, 0); err != nil {
		t.Fatal(err)
	}
}

func TestRandomizedSplitShatteringPath(t *testing.T) {
	t.Parallel()
	// δ = 12 < 2·log2(n) for n = 2560: the shattering path runs.
	b, err := graph.RandomBipartiteBiregular(512, 2048, 12, prob.NewSource(25).Rand())
	if err != nil {
		t.Fatal(err)
	}
	if float64(b.MinDegU()) > 2*log2n(b) {
		t.Fatal("instance does not exercise the shattering path")
	}
	res, err := RandomizedSplit(b, prob.NewSource(26), RandomizedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := check.WeakSplit(b, res.Colors, 0); err != nil {
		t.Fatal(err)
	}
	// The trace must mention the shattering phase.
	found := false
	for _, p := range res.Trace.Phases {
		if p.Name == "shattering" {
			found = true
		}
	}
	if !found {
		t.Error("trace missing shattering phase")
	}
}

func TestRandomizedSplitRejectsTinyDegrees(t *testing.T) {
	b := instance(t, 5, 5, 1, 27)
	if _, err := RandomizedSplit(b, prob.NewSource(28), RandomizedOptions{}); err == nil {
		t.Error("δ = 1 is unsolvable and must be rejected")
	}
}

func TestDeterministicSplitSmallDeltaBranch(t *testing.T) {
	// 2·log n ≤ δ ≤ 48·log n: the Lemma 2.2 branch.
	b := instance(t, 70, 90, 18, 29)
	res, err := DeterministicSplit(b, DeterministicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := check.WeakSplit(b, res.Colors, 0); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicSplitRejectsLowDegree(t *testing.T) {
	b := instance(t, 40, 40, 4, 30)
	if _, err := DeterministicSplit(b, DeterministicOptions{}); err == nil {
		t.Error("δ below 2·log n must be rejected")
	}
}

func TestDeterministicSplitDRRBranch(t *testing.T) {
	if testing.Short() {
		t.Skip("large instance")
	}
	t.Parallel()
	// δ = 512 > 48·log2(1088) ≈ 484: the full DRR-I pipeline runs.
	b, err := graph.RandomBipartiteBiregular(64, 1024, 512, prob.NewSource(31).Rand())
	if err != nil {
		t.Fatal(err)
	}
	res, err := DeterministicSplit(b, DeterministicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := check.WeakSplit(b, res.Colors, 0); err != nil {
		t.Fatal(err)
	}
	// The DRR phase must appear in the trace (no silent fallback).
	sawDRR := false
	for _, p := range res.Trace.Phases {
		if len(p.Name) >= 4 && p.Name[:4] == "drr1" {
			sawDRR = true
		}
	}
	if !sawDRR {
		t.Log("warning: fallback taken instead of DRR path; notes:", res.Trace.Notes)
	}
}

func TestTraceAccounting(t *testing.T) {
	var tr Trace
	tr.Add("a", 3)
	tr.Add("b", 4)
	tr.Note("hello %d", 7)
	if tr.Rounds() != 7 {
		t.Errorf("Rounds = %d, want 7", tr.Rounds())
	}
	var tr2 Trace
	tr2.Merge("x-", &tr)
	if tr2.Phases[1].Name != "x-b" || tr2.Rounds() != 7 {
		t.Error("merge wrong")
	}
	if len(tr2.Notes) != 1 {
		t.Error("notes not merged")
	}
}

func TestSplitterKindString(t *testing.T) {
	if SplitterApproxDet.String() != "approx-det" ||
		SplitterApproxRand.String() != "approx-rand" ||
		SplitterEulerian.String() != "eulerian" {
		t.Error("SplitterKind names wrong")
	}
	if SplitterKind(99).String() == "" {
		t.Error("unknown kind should still print")
	}
}

func TestDeterministicSplitReproducible(t *testing.T) {
	b := instance(t, 60, 90, 18, 40)
	a, err := DeterministicSplit(b, DeterministicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := DeterministicSplit(b, DeterministicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Colors {
		if a.Colors[v] != c.Colors[v] {
			t.Fatal("deterministic algorithm gave different outputs")
		}
	}
}

func TestRandomizedSplitReproducible(t *testing.T) {
	b, err := graph.RandomBipartiteBiregular(256, 1024, 12, prob.NewSource(41).Rand())
	if err != nil {
		t.Fatal(err)
	}
	a, err := RandomizedSplit(b, prob.NewSource(42), RandomizedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := RandomizedSplit(b, prob.NewSource(42), RandomizedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range a.Colors {
		if a.Colors[v] != c.Colors[v] {
			t.Fatal("same seed must give identical outputs")
		}
	}
}

func TestBasicDerandomizedPoolEngine(t *testing.T) {
	b := instance(t, 40, 60, 15, 43)
	seq, err := BasicDerandomized(b, local.SequentialEngine{})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := BasicDerandomized(b, local.WorkerPoolEngine{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for v := range seq.Colors {
		if seq.Colors[v] != pool.Colors[v] {
			t.Fatal("engines disagree in the Lemma 2.1 pipeline")
		}
	}
}

func TestWeakSplitOnEncodedGraph(t *testing.T) {
	// The Section 1.2 encoding: weak splitting of FromGraph(G) 2-colors the
	// nodes of G so every node sees both colors among its neighbors.
	g, err := graph.RandomRegular(100, 20, prob.NewSource(44).Rand())
	if err != nil {
		t.Fatal(err)
	}
	b := graph.FromGraph(g)
	res, err := TruncatedDerandomized(b, local.SequentialEngine{})
	if err != nil {
		t.Fatal(err)
	}
	// Interpret on the original graph: every node must have both colors in
	// its neighborhood.
	for v := 0; v < g.N(); v++ {
		var red, blue bool
		for _, w := range g.Neighbors(v) {
			if res.Colors[w] == Red {
				red = true
			} else {
				blue = true
			}
		}
		if !red || !blue {
			t.Fatalf("node %d has a monochromatic neighborhood", v)
		}
	}
}

// residualWithFree is a residual-shaped instance: one constrained component
// (two constraints on the same 8 variables) followed by free isolated
// variables, each a constraint-free component of its own.
func residualWithFree(t *testing.T, free int) *graph.Bipartite {
	t.Helper()
	var es [][2]int
	for u := 0; u < 2; u++ {
		for v := 0; v < 8; v++ {
			es = append(es, [2]int{u, v})
		}
	}
	h, err := graph.BipartiteFromEdges(2, 8+free, es)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestSolveResidualFreeComponents pins the residual solve's handling of
// constraint-free components: they are colored Red without building a
// subgraph, so the solve's allocations do not grow with their number, and
// they still count in the trace exactly as solved components did.
func TestSolveResidualFreeComponents(t *testing.T) {
	opts := RandomizedOptions{}
	opts.normalize()
	measure := func(free int) float64 {
		h := residualWithFree(t, free)
		origV := make([]int, h.NV())
		for v := range origV {
			origV[v] = v
		}
		colors := make([]int, h.NV())
		var tr Trace
		run := func() {
			for v := range colors {
				colors[v] = Uncolored
			}
			tr = Trace{}
			if err := solveResidual(h, origV, colors, prob.NewSource(9), opts, &tr); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(5, run)
		if err := check.WeakSplit(h, colors, 0); err != nil {
			t.Fatal(err)
		}
		for v := 8; v < h.NV(); v++ {
			if colors[v] != Red {
				t.Fatalf("free variable %d colored %d, want Red", v, colors[v])
			}
		}
		want := fmt.Sprintf("residual: %d components, max size 10, 0 randomized fallbacks", 1+free)
		if len(tr.Notes) != 1 || tr.Notes[0] != want {
			t.Fatalf("trace notes %q, want [%q]", tr.Notes, want)
		}
		return allocs
	}
	few, many := measure(10), measure(10_000)
	if many > few+4 {
		t.Errorf("residual solve allocated %.0f times with 10,000 free components, %.0f with 10; want no growth", many, few)
	}
}
