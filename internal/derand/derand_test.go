package derand

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/prob"
)

// varToCons extracts the variable→constraint adjacency from a bipartite
// instance (variables = V side, constraints = U side).
func varToCons(b *graph.Bipartite) ([][]int32, []int) {
	vtc := make([][]int32, b.NV())
	for v := range vtc {
		vtc[v] = b.NbrV(v)
	}
	degs := make([]int, b.NU())
	for u := range degs {
		degs[u] = b.DegU(u)
	}
	return vtc, degs
}

func TestWeakSplitGreedySolves(t *testing.T) {
	// 60 constraints of degree 16 over 80 variables; n = 140 so
	// δ = 16 ≥ 2·log2(140) ≈ 14.3 and the initial potential is < 1.
	rng := prob.NewSource(1).Rand()
	b, err := graph.RandomBipartiteLeftRegular(60, 80, 16, rng)
	if err != nil {
		t.Fatal(err)
	}
	vtc, degs := varToCons(b)
	est := NewWeakSplitEstimator(vtc, degs)
	order := make([]int, b.NV())
	for i := range order {
		order[i] = i
	}
	labels, err := Greedy(est, order)
	if err != nil {
		t.Fatal(err)
	}
	if est.Violations() != 0 {
		t.Fatalf("%d constraints unsatisfied after derandomization", est.Violations())
	}
	// Independent verification against the actual graph.
	for u := 0; u < b.NU(); u++ {
		var red, blue bool
		for _, v := range b.NbrU(u) {
			if labels[v] == Red {
				red = true
			} else {
				blue = true
			}
		}
		if !red || !blue {
			t.Fatalf("constraint %d monochromatic", u)
		}
	}
}

// weakSplitPotentialsDigest is the FNV-1a digest of every potential
// TestWeakSplitPotentialMonotone reads (Cost before the run, then CostIf
// of both labels and Cost after each Fix), recorded when the estimator
// still called math.Exp2 for every term: the 2^-k table must leave each
// value bit-identical.
const weakSplitPotentialsDigest = 0xfcfc9ac8e8cffd48

func TestWeakSplitPotentialMonotone(t *testing.T) {
	rng := prob.NewSource(2).Rand()
	b, err := graph.RandomBipartiteLeftRegular(30, 50, 14, rng)
	if err != nil {
		t.Fatal(err)
	}
	vtc, degs := varToCons(b)
	est := NewWeakSplitEstimator(vtc, degs)
	digest := fnv.New64a()
	record := func(x float64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		digest.Write(buf[:])
	}
	prev := est.Cost()
	record(prev)
	for v := 0; v < b.NV(); v++ {
		// Greedy choice never increases the potential.
		c0, c1 := est.CostIf(v, Red), est.CostIf(v, Blue)
		x := Red
		if c1 < c0 {
			x = Blue
		}
		est.Fix(v, x)
		if est.Cost() > prev+1e-9 {
			t.Fatalf("potential increased at step %d: %v -> %v", v, prev, est.Cost())
		}
		prev = est.Cost()
		record(c0)
		record(c1)
		record(prev)
	}
	if got := digest.Sum64(); got != weakSplitPotentialsDigest {
		t.Errorf("potentials digest %#016x, want %#016x", got, uint64(weakSplitPotentialsDigest))
	}
}

func TestWeakSplitCostIfMatchesFix(t *testing.T) {
	rng := prob.NewSource(3).Rand()
	b, err := graph.RandomBipartiteLeftRegular(20, 30, 12, rng)
	if err != nil {
		t.Fatal(err)
	}
	vtc, degs := varToCons(b)
	est := NewWeakSplitEstimator(vtc, degs)
	for v := 0; v < 10; v++ {
		want := est.CostIf(v, Blue)
		est.Fix(v, Blue)
		if math.Abs(est.Cost()-want) > 1e-9 {
			t.Fatalf("CostIf/Fix mismatch at %d: %v vs %v", v, want, est.Cost())
		}
	}
}

func TestGreedyPreconditionRejected(t *testing.T) {
	// Degree-2 constraints: potential 2·2^{-2}·|U| ≥ 1 for |U| ≥ 2.
	b, err := graph.BipartiteFromEdges(2, 2, [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	vtc, degs := varToCons(b)
	est := NewWeakSplitEstimator(vtc, degs)
	if _, err := Greedy(est, []int{0, 1}); err == nil {
		t.Fatal("expected precondition error for tiny degrees")
	}
}

func TestGreedyOrderValidation(t *testing.T) {
	b, _ := graph.BipartiteFromEdges(1, 3, [][2]int{{0, 0}, {0, 1}, {0, 2}})
	vtc, degs := varToCons(b)
	if _, err := Greedy(NewWeakSplitEstimator(vtc, degs), []int{0, 1}); err == nil {
		t.Error("short order should error")
	}
	if _, err := Greedy(NewWeakSplitEstimator(vtc, degs), []int{0, 1, 1}); err == nil {
		t.Error("duplicate in order should error")
	}
}

func TestMulticolorCoverGreedy(t *testing.T) {
	// With C = 8 colors and degree 64 ≥ C·ln(C·|U|) ≈ 8·ln(320) ≈ 46,
	// the initial potential Σ C(1-1/C)^d is < 1.
	rng := prob.NewSource(4).Rand()
	b, err := graph.RandomBipartiteLeftRegular(40, 120, 64, rng)
	if err != nil {
		t.Fatal(err)
	}
	vtc, degs := varToCons(b)
	const colors = 8
	est := NewMulticolorCoverEstimator(vtc, degs, colors)
	order := make([]int, b.NV())
	for i := range order {
		order[i] = i
	}
	labels, err := Greedy(est, order)
	if err != nil {
		t.Fatal(err)
	}
	// Every constraint must see all C colors.
	for u := 0; u < b.NU(); u++ {
		seen := make(map[int]bool)
		for _, v := range b.NbrU(u) {
			seen[labels[v]] = true
		}
		if len(seen) != colors {
			t.Fatalf("constraint %d sees %d of %d colors", u, len(seen), colors)
		}
		if est.SeenCount(u) != colors {
			t.Fatalf("estimator bookkeeping wrong for %d", u)
		}
	}
}

func TestMulticolorCostIfMatchesFix(t *testing.T) {
	rng := prob.NewSource(5).Rand()
	b, err := graph.RandomBipartiteLeftRegular(10, 40, 30, rng)
	if err != nil {
		t.Fatal(err)
	}
	vtc, degs := varToCons(b)
	est := NewMulticolorCoverEstimator(vtc, degs, 4)
	for v := 0; v < 10; v++ {
		x := v % 4
		want := est.CostIf(v, x)
		est.Fix(v, x)
		if math.Abs(est.Cost()-want) > 1e-9 {
			t.Fatalf("CostIf/Fix mismatch at %d", v)
		}
	}
}

func TestCLambdaGreedy(t *testing.T) {
	// C = 4 colors, λ = 0.5: every constraint of degree d must end with at
	// most ⌈d/2⌉ neighbors of each color. Degrees 40 with 30 constraints
	// give a comfortably small initial potential.
	rng := prob.NewSource(6).Rand()
	b, err := graph.RandomBipartiteLeftRegular(30, 100, 40, rng)
	if err != nil {
		t.Fatal(err)
	}
	vtc, degs := varToCons(b)
	const colors = 4
	const lambda = 0.5
	est := NewCLambdaEstimator(vtc, degs, colors, lambda)
	if est.Cost() >= 1 {
		t.Fatalf("initial potential %v >= 1; test parameters too weak", est.Cost())
	}
	order := make([]int, b.NV())
	for i := range order {
		order[i] = i
	}
	labels, err := Greedy(est, order)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < b.NU(); u++ {
		loads := make([]int, colors)
		for _, v := range b.NbrU(u) {
			loads[labels[v]]++
		}
		k := est.Threshold(u)
		for x, load := range loads {
			if load > k {
				t.Fatalf("constraint %d color %d load %d > ⌈λd⌉ = %d", u, x, load, k)
			}
		}
		if est.MaxLoad(u) > k {
			t.Fatalf("estimator bookkeeping wrong for %d", u)
		}
	}
}

func TestCLambdaCostIfMatchesFix(t *testing.T) {
	rng := prob.NewSource(7).Rand()
	b, err := graph.RandomBipartiteLeftRegular(10, 30, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	vtc, degs := varToCons(b)
	est := NewCLambdaEstimator(vtc, degs, 3, 0.6)
	for v := 0; v < 10; v++ {
		x := v % 3
		want := est.CostIf(v, x)
		est.Fix(v, x)
		if math.Abs(est.Cost()-want) > 1e-6*math.Max(1, want) {
			t.Fatalf("CostIf/Fix mismatch at %d: %v vs %v", v, want, est.Cost())
		}
	}
}

func TestUniformSplitGreedy(t *testing.T) {
	// 64-regular graph, ε = 0.25: constraints want red-degree within
	// [16, 48]; MGF potential is ≪ 1 for these parameters.
	g, err := graph.RandomRegular(120, 64, prob.NewSource(8).Rand())
	if err != nil {
		t.Fatal(err)
	}
	vtc := make([][]int32, g.N())
	degs := make([]int, g.N())
	for v := 0; v < g.N(); v++ {
		vtc[v] = g.Neighbors(v)
		degs[v] = g.Deg(v)
	}
	eps := 0.25
	est := NewUniformSplitEstimator(vtc, degs, eps)
	if est.Cost() >= 1 {
		t.Fatalf("initial potential %v >= 1", est.Cost())
	}
	order := make([]int, g.N())
	for i := range order {
		order[i] = i
	}
	labels, err := Greedy(est, order)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		red := 0
		for _, w := range g.Neighbors(v) {
			if labels[w] == Red {
				red++
			}
		}
		d := float64(g.Deg(v))
		if float64(red) > (0.5+eps)*d || float64(red) < (0.5-eps)*d {
			t.Fatalf("node %d red-degree %d outside [%v,%v]", v, red, (0.5-eps)*d, (0.5+eps)*d)
		}
	}
}

func TestUniformSplitCostIfMatchesFix(t *testing.T) {
	g := graph.Complete(20)
	vtc := make([][]int32, g.N())
	degs := make([]int, g.N())
	for v := 0; v < g.N(); v++ {
		vtc[v] = g.Neighbors(v)
		degs[v] = g.Deg(v)
	}
	est := NewUniformSplitEstimator(vtc, degs, 0.3)
	for v := 0; v < 10; v++ {
		x := v % 2
		want := est.CostIf(v, x)
		est.Fix(v, x)
		if math.Abs(est.Cost()-want) > 1e-9*math.Max(1, want) {
			t.Fatalf("CostIf/Fix mismatch at %d", v)
		}
	}
}

func TestEstimatorPotentialsAreMartingales(t *testing.T) {
	// Property: for every estimator, the average of CostIf over all labels
	// must not exceed the current cost (pessimistic estimator property).
	f := func(seed uint64) bool {
		rng := prob.NewSource(seed).Rand()
		b, err := graph.RandomBipartiteLeftRegular(15, 30, 12, rng)
		if err != nil {
			return false
		}
		vtc, degs := varToCons(b)
		ests := []Estimator{
			NewWeakSplitEstimator(vtc, degs),
			NewMulticolorCoverEstimator(vtc, degs, 3),
			NewCLambdaEstimator(vtc, degs, 3, 0.7),
		}
		for _, est := range ests {
			for v := 0; v < 5; v++ {
				var avg float64
				for x := 0; x < est.Labels(); x++ {
					avg += est.CostIf(v, x)
				}
				avg /= float64(est.Labels())
				if avg > est.Cost()+1e-9*math.Max(1, est.Cost()) {
					return false
				}
				est.Fix(v, int(seed%uint64(est.Labels())))
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestDefectiveSplitEstimator(t *testing.T) {
	g, err := graph.RandomRegular(150, 96, prob.NewSource(9).Rand())
	if err != nil {
		t.Fatal(err)
	}
	adj := make([][]int32, g.N())
	for v := range adj {
		adj[v] = g.Neighbors(v)
	}
	est := NewDefectiveSplitEstimator(adj, 50, 0.3)
	if est.Cost() >= 1 {
		t.Fatalf("initial potential %v >= 1 at degree 96, ε=0.3", est.Cost())
	}
	// CostIf must equal the post-Fix cost exactly (apply/rollback).
	for v := 0; v < 20; v++ {
		x := v % 2
		want := est.CostIf(v, x)
		est.Fix(v, x)
		if got := est.Cost(); got != want {
			t.Fatalf("CostIf/Fix mismatch at %d: %v vs %v", v, want, got)
		}
	}
	if est.Vars() != g.N() || est.Labels() != 2 {
		t.Error("dimensions wrong")
	}
}

func TestDefectiveSplitEstimatorMartingale(t *testing.T) {
	g, err := graph.RandomRegular(80, 40, prob.NewSource(10).Rand())
	if err != nil {
		t.Fatal(err)
	}
	adj := make([][]int32, g.N())
	for v := range adj {
		adj[v] = g.Neighbors(v)
	}
	est := NewDefectiveSplitEstimator(adj, 10, 0.3)
	for v := 0; v < 30; v++ {
		avg := (est.CostIf(v, Red) + est.CostIf(v, Blue)) / 2
		if cur := est.Cost(); avg > cur*(1+1e-9)+1e-12 {
			t.Fatalf("not a supermartingale at %d: avg %v > cur %v", v, avg, cur)
		}
		if est.CostIf(v, Red) <= est.CostIf(v, Blue) {
			est.Fix(v, Red)
		} else {
			est.Fix(v, Blue)
		}
	}
	// Full greedy must succeed and leave every constrained node within
	// bound (cross-checked by the reduction package's verifier tests).
	order := make([]int, g.N())
	for i := range order {
		order[i] = i
	}
	est2 := NewDefectiveSplitEstimator(adj, 10, 0.3)
	if _, err := Greedy(est2, order); err != nil {
		t.Fatal(err)
	}
}

// TestExp2NegMatchesMathExp2 pins the 2^-k table bit for bit against
// math.Exp2 over the whole table, the subnormal range (k > 1022), the
// underflow to 0 (k ≥ 1075) and the fallback past the table's end and
// below 0.
func TestExp2NegMatchesMathExp2(t *testing.T) {
	for k := -3; k <= 1200; k++ {
		if got, want := exp2Neg(k), math.Exp2(-float64(k)); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("exp2Neg(%d) = %v (%#x), want %v (%#x)", k, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	if exp2Neg(1074) == 0 || exp2Neg(1075) != 0 {
		t.Errorf("2^-1074 must be the smallest subnormal and 2^-1075 underflow to 0, got %v and %v", exp2Neg(1074), exp2Neg(1075))
	}
}
