package splitting_test

import (
	"testing"

	splitting "repro"
)

func TestFacadeDeterministic(t *testing.T) {
	src := splitting.NewSource(1)
	b, err := splitting.RandomInstance(60, 90, 18, src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := splitting.Deterministic(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := splitting.Verify(b, res.Colors, 0); err != nil {
		t.Fatal(err)
	}
	if res.Trace.Rounds() <= 0 {
		t.Error("expected round accounting")
	}
}

func TestFacadeRandomizedAndTrivial(t *testing.T) {
	src := splitting.NewSource(2)
	b, err := splitting.RandomBiregularInstance(128, 512, 12, src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := splitting.Randomized(b, splitting.NewSource(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := splitting.Verify(b, res.Colors, 0); err != nil {
		t.Fatal(err)
	}
	big, err := splitting.RandomInstance(50, 80, 24, splitting.NewSource(4))
	if err != nil {
		t.Fatal(err)
	}
	triv, err := splitting.TrivialRandomized(big, splitting.NewSource(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := splitting.Verify(big, triv.Colors, 0); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeSixRAndReference(t *testing.T) {
	src := splitting.NewSource(6)
	b, err := splitting.RandomBiregularInstance(256, 1536, 18, src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := splitting.SixR(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := splitting.Verify(b, res.Colors, 0); err != nil {
		t.Fatal(err)
	}
	small, err := splitting.RandomInstance(10, 20, 4, splitting.NewSource(7))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := splitting.Reference(small)
	if err != nil {
		t.Fatal(err)
	}
	if err := splitting.Verify(small, ref.Colors, 0); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeFromGraphAndSinkless(t *testing.T) {
	src := splitting.NewSource(8)
	g, err := splitting.RandomRegularGraph(120, 24, src)
	if err != nil {
		t.Fatal(err)
	}
	b := splitting.FromGraph(g)
	if b.NU() != g.N() || b.NV() != g.N() {
		t.Fatal("FromGraph sizes wrong")
	}
	toward, edges, err := splitting.SinklessOrientation(g, splitting.NewSource(9))
	if err != nil {
		t.Fatal(err)
	}
	hasOut := make([]bool, g.N())
	for i, e := range edges {
		if toward[i] {
			hasOut[e[0]] = true
		} else {
			hasOut[e[1]] = true
		}
	}
	for v, ok := range hasOut {
		if !ok {
			t.Fatalf("node %d is a sink", v)
		}
	}
}

func TestFacadeMulticolor(t *testing.T) {
	src := splitting.NewSource(10)
	b, err := splitting.RandomInstance(30, 600, 140, src)
	if err != nil {
		t.Fatal(err)
	}
	p := splitting.DefaultCoverParams(b)
	cover, err := splitting.MulticolorCover(b, p)
	if err != nil {
		t.Fatal(err)
	}
	weak, err := splitting.WeakSplitFromCover(b, p, cover)
	if err != nil {
		t.Fatal(err)
	}
	if err := splitting.Verify(b, weak.Colors, p.MinDeg); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeColoringAndMIS(t *testing.T) {
	src := splitting.NewSource(11)
	g := splitting.RandomGraphGNP(256, 0.3, src)
	col, err := splitting.ColorViaSplitting(g, 0.3, splitting.NewSource(12))
	if err != nil {
		t.Fatal(err)
	}
	if col.Num <= 0 || len(col.Colors) != g.N() {
		t.Fatal("coloring malformed")
	}
	m, err := splitting.MISViaSplitting(g, splitting.NewSource(13))
	if err != nil {
		t.Fatal(err)
	}
	l, err := splitting.MISLuby(g, splitting.NewSource(14))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.InSet) != g.N() || len(l.InSet) != g.N() {
		t.Fatal("MIS output malformed")
	}
}

func TestFacadeEngines(t *testing.T) {
	if splitting.Sequential() == nil || splitting.WorkerPool(0) == nil {
		t.Fatal("engines missing")
	}
}

// TestFacadeBatch sweeps one instance over several seeds through the
// batched facade entry points and pins them to their standalone twins.
func TestFacadeBatch(t *testing.T) {
	b, err := splitting.RandomInstance(40, 120, 24, splitting.NewSource(9))
	if err != nil {
		t.Fatal(err)
	}
	srcs := []*splitting.Source{splitting.NewSource(1), splitting.NewSource(2), splitting.NewSource(3)}
	results, errs := splitting.TrivialRandomizedBatch(b, srcs)
	for i, src := range srcs {
		if errs[i] != nil {
			t.Fatalf("seed %d: %v", i, errs[i])
		}
		if err := splitting.Verify(b, results[i].Colors, 0); err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		want, err := splitting.TrivialRandomized(b, src)
		if err != nil {
			t.Fatal(err)
		}
		for v := range want.Colors {
			if results[i].Colors[v] != want.Colors[v] {
				t.Fatalf("seed %d: batched color differs at variable %d", i, v)
			}
		}
	}
	// The generic Batch wrapper: a trivial one-round program over the
	// instance graph, one trial per seed.
	topo := splitting.NewTopology(b.AsGraph())
	trials := make([]splitting.Trial, len(srcs))
	for i, src := range srcs {
		trials[i] = splitting.Trial{
			Factory: func(v splitting.View) splitting.Node {
				return splitting.NodeFunc(func(int, []splitting.Message) ([]splitting.Message, bool) {
					return nil, true
				})
			},
			Opts: splitting.RunOptions{Source: src},
		}
	}
	stats, terrs := splitting.Batch(topo, trials, 0)
	for i := range trials {
		if terrs[i] != nil {
			t.Fatalf("trial %d: %v", i, terrs[i])
		}
		if stats[i].Rounds != 1 || stats[i].Messages != 0 {
			t.Errorf("trial %d: unexpected stats %+v", i, stats[i])
		}
	}
}

func TestFacadeHighGirth(t *testing.T) {
	star, err := splittingStar(64)
	if err != nil {
		t.Fatal(err)
	}
	res, err := splitting.HighGirthRandomized(star, splitting.NewSource(31))
	if err != nil {
		t.Fatal(err)
	}
	if err := splitting.Verify(star, res.Colors, 0); err != nil {
		t.Fatal(err)
	}
	det, err := splitting.HighGirthDeterministic(mustStar(t, 81))
	if err != nil {
		t.Fatal(err)
	}
	if err := splitting.Verify(mustStar(t, 81), det.Colors, 0); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeCLambdaAndDefective(t *testing.T) {
	src := splitting.NewSource(32)
	b, err := splitting.RandomInstance(30, 400, 100, src)
	if err != nil {
		t.Fatal(err)
	}
	p := splitting.CLambdaParams{Palette: 4, Lambda: 0.5, MinDeg: 80}
	res, err := splitting.CLambdaSplit(b, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Palette != 4 {
		t.Error("palette wrong")
	}
	g, err := splitting.RandomRegularGraph(200, 128, splitting.NewSource(33))
	if err != nil {
		t.Fatal(err)
	}
	labels, err := splitting.DefectiveSplit(g, 0.35, splitting.NewSource(34))
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != g.N() {
		t.Error("labels malformed")
	}
	ec, err := splitting.EdgeColorViaSplitting(g, splitting.NewSource(35))
	if err != nil {
		t.Fatal(err)
	}
	if ec.Num >= 2*g.MaxDeg() {
		t.Errorf("edge palette %d not below 2Δ", ec.Num)
	}
}

// helpers for high-girth facade tests
func splittingStar(d int) (*splitting.Bipartite, error) {
	return splitting.HighGirthStarInstance(d)
}

func mustStar(t *testing.T, d int) *splitting.Bipartite {
	t.Helper()
	b, err := splitting.HighGirthStarInstance(d)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
