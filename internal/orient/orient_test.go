package orient

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/prob"
)

func randomMulti(n, m int, seed uint64) *graph.Multigraph {
	rng := prob.NewSource(seed).Rand()
	edges := make([][2]int, m)
	for i := range edges {
		u := rng.IntN(n)
		v := rng.IntN(n)
		for v == u {
			v = rng.IntN(n)
		}
		edges[i] = [2]int{u, v}
	}
	mg, err := graph.MultigraphFromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return mg
}

func TestEulerianSplitDiscrepancy(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    *graph.Multigraph
	}{
		{"random-multi", randomMulti(40, 300, 1)},
		{"cycle", func() *graph.Multigraph { m, _ := graph.MultigraphFromGraph(graph.Cycle(17)); return m }()},
		{"regular", func() *graph.Multigraph {
			g, err := graph.RandomRegular(60, 8, prob.NewSource(2).Rand())
			if err != nil {
				t.Fatal(err)
			}
			m, _ := graph.MultigraphFromGraph(g)
			return m
		}()},
	} {
		res := EulerianSplit(tc.m)
		for v := 0; v < tc.m.N(); v++ {
			d := tc.m.Discrepancy(res.O, v)
			want := tc.m.Deg(v) % 2 // 1 for odd degree, 0 for even
			if d > want {
				t.Errorf("%s: node %d has discrepancy %d with degree %d (want ≤ %d)",
					tc.name, v, d, tc.m.Deg(v), want)
			}
		}
		if res.Rounds < res.MaxSegment {
			t.Errorf("%s: round accounting %d below propagation depth %d", tc.name, res.Rounds, res.MaxSegment)
		}
	}
}

func TestEulerianSplitEmpty(t *testing.T) {
	m, err := graph.MultigraphFromEdges(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := EulerianSplit(m)
	if res.Rounds != 0 || len(res.O.Toward) != 0 {
		t.Errorf("empty multigraph should cost nothing: %+v", res)
	}
}

func TestEulerianSplitProperty(t *testing.T) {
	f := func(seed uint64) bool {
		m := randomMulti(10+int(seed%30), 50+int(seed%200), seed)
		res := EulerianSplit(m)
		for v := 0; v < m.N(); v++ {
			if m.Discrepancy(res.O, v) > m.Deg(v)%2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestApproxSplitSegmentsBounded(t *testing.T) {
	m := randomMulti(50, 600, 3)
	eps := 0.25
	l := int(2.0/eps) + 1
	res := ApproxSplit(m, eps, prob.NewSource(4))
	if res.MaxSegment > 2*l {
		t.Errorf("segment length %d exceeds 2L = %d", res.MaxSegment, 2*l)
	}
	if res.Rounds > 2*l+10 {
		t.Errorf("rounds %d not O(1/ε + log*)", res.Rounds)
	}
}

func TestApproxSplitDiscrepancyExpectation(t *testing.T) {
	// On an 80-node 32-regular graph with ε = 1/4, the average discrepancy
	// should be well under ε·d + 2 = 10; allow slack for variance.
	g, err := graph.RandomRegular(80, 32, prob.NewSource(5).Rand())
	if err != nil {
		t.Fatal(err)
	}
	m, _ := graph.MultigraphFromGraph(g)
	eps := 0.25
	var totalDisc int
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		res := ApproxSplit(m, eps, prob.NewSource(uint64(100+trial)))
		for v := 0; v < m.N(); v++ {
			totalDisc += m.Discrepancy(res.O, v)
		}
	}
	avg := float64(totalDisc) / float64(trials*m.N())
	if bound := eps*32 + 2; avg > bound {
		t.Errorf("average discrepancy %.2f exceeds ε·d+2 = %.2f", avg, bound)
	}
}

func TestApproxSplitDetDeterministic(t *testing.T) {
	m := randomMulti(30, 200, 6)
	r1 := ApproxSplitDet(m, 0.2)
	r2 := ApproxSplitDet(m, 0.2)
	for e := range r1.O.Toward {
		if r1.O.Toward[e] != r2.O.Toward[e] {
			t.Fatal("deterministic splitter not deterministic")
		}
	}
	l := int(2.0/0.2) + 1
	if r1.MaxSegment > 2*l {
		t.Errorf("segment %d > 2L %d", r1.MaxSegment, 2*l)
	}
	if r1.Cuts == 0 {
		t.Error("expected some cuts on 200 edges with L=11")
	}
}

func TestApproxSplitEpsClamped(t *testing.T) {
	m := randomMulti(10, 40, 7)
	// Nonsense ε values are clamped rather than panicking.
	if res := ApproxSplit(m, -1, prob.NewSource(1)); res.O == nil {
		t.Error("negative eps should still work")
	}
	if res := ApproxSplitDet(m, 2.0); res.O == nil {
		t.Error("eps > 1 should still work")
	}
}

func TestRandomOrientation(t *testing.T) {
	m := randomMulti(20, 100, 8)
	res := RandomOrientation(m, prob.NewSource(9).Rand())
	if res.Rounds != 0 {
		t.Error("random orientation is 0 rounds")
	}
	if len(res.O.Toward) != m.M() {
		t.Error("wrong orientation size")
	}
}

func TestChainDecompositionCoversAllEdges(t *testing.T) {
	f := func(seed uint64) bool {
		m := randomMulti(8+int(seed%20), 30+int(seed%100), seed)
		cl := pairEdges(m)
		chains := cl.decompose()
		seen := make([]bool, m.M())
		count := 0
		for _, ch := range chains {
			if len(ch.edges) != len(ch.entry) {
				return false
			}
			for _, e := range ch.edges {
				if seen[e] {
					return false // edge in two chains
				}
				seen[e] = true
				count++
			}
		}
		return count == m.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestChainLinksConsistency(t *testing.T) {
	m := randomMulti(15, 80, 10)
	cl := pairEdges(m)
	// Partner relation must be symmetric and at a shared node.
	for e := 0; e < m.M(); e++ {
		for s := 0; s < 2; s++ {
			p := cl.partner[e][s]
			if p < 0 {
				continue
			}
			var v int
			if s == 0 {
				v, _ = m.Endpoints(e)
			} else {
				_, v = m.Endpoints(e)
			}
			back := cl.partner[p][side(m, int(p), v)]
			if back != int32(e) {
				t.Fatalf("partner relation not symmetric at edge %d side %d", e, s)
			}
		}
	}
	// Every node has at most one unpaired slot iff its degree is odd.
	for v := 0; v < m.N(); v++ {
		unpaired := 0
		for _, e := range m.Incident(v) {
			if cl.partner[e][side(m, int(e), v)] < 0 {
				unpaired++
			}
		}
		if unpaired != m.Deg(v)%2 {
			t.Fatalf("node %d: %d unpaired slots with degree %d", v, unpaired, m.Deg(v))
		}
	}
}

func TestLogStar(t *testing.T) {
	cases := []struct{ n, want int }{{1, 0}, {2, 1}, {4, 2}, {16, 3}, {65536, 4}}
	for _, c := range cases {
		if got := logStar(c.n); got != c.want {
			t.Errorf("logStar(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}
