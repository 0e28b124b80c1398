package orient

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/prob"
)

func TestEdgeSplitWholeChains(t *testing.T) {
	g, err := graph.RandomRegular(100, 16, prob.NewSource(1).Rand())
	if err != nil {
		t.Fatal(err)
	}
	m, _ := graph.MultigraphFromGraph(g)
	res := EdgeSplit(m, 0, prob.NewSource(2))
	// Whole-chain alternation: per-node discrepancy ≤ 1 (odd slot) + 2 per
	// odd cycle passing its wrap at the node; on a 16-regular graph almost
	// every node must be ≤ 3.
	for v := 0; v < m.N(); v++ {
		if d := ColorDiscrepancy(m, res.Colors, v); d > 3 {
			t.Errorf("node %d color discrepancy %d > 3 with whole chains", v, d)
		}
	}
	if res.Cuts != 0 {
		t.Errorf("whole-chain variant must not cut, got %d", res.Cuts)
	}
}

func TestEdgeSplitBounded(t *testing.T) {
	g, err := graph.RandomRegular(80, 24, prob.NewSource(3).Rand())
	if err != nil {
		t.Fatal(err)
	}
	m, _ := graph.MultigraphFromGraph(g)
	eps := 0.25
	res := EdgeSplit(m, eps, prob.NewSource(4))
	l := int(2.0/eps) + 1
	if res.MaxSegment > 2*l {
		t.Errorf("segment %d exceeds 2L = %d", res.MaxSegment, 2*l)
	}
	if res.Rounds > 2*l+10 {
		t.Errorf("rounds %d not O(1/ε + log*)", res.Rounds)
	}
	// Average discrepancy must stay near ε·d+2.
	var sum int
	for v := 0; v < m.N(); v++ {
		sum += ColorDiscrepancy(m, res.Colors, v)
	}
	if avg := float64(sum) / float64(m.N()); avg > eps*24+2 {
		t.Errorf("average discrepancy %.2f exceeds ε·d+2 = %.2f", avg, eps*24+2)
	}
}

func TestEdgeSplitDeterministicWithoutSource(t *testing.T) {
	m := randomMulti(30, 150, 5)
	a := EdgeSplit(m, 0.5, nil)
	b := EdgeSplit(m, 0.5, nil)
	for e := range a.Colors {
		if a.Colors[e] != b.Colors[e] {
			t.Fatal("nil-source variant should be deterministic")
		}
	}
}

func TestEdgeSplitEmpty(t *testing.T) {
	m, err := graph.MultigraphFromEdges(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := EdgeSplit(m, 0.5, nil)
	if res.Rounds != 0 || len(res.Colors) != 0 {
		t.Errorf("empty multigraph should cost nothing: %+v", res)
	}
}

func TestEdgeSplitPairBalanceProperty(t *testing.T) {
	// Structural invariant of whole-chain alternation: for every node,
	// every *pair* matched at that node gets two distinct colors except
	// possibly at odd-cycle wrap points — so discrepancy ≤ 1 + 2·(wraps).
	f := func(seed uint64) bool {
		m := randomMulti(12+int(seed%20), 60+int(seed%80), seed)
		res := EdgeSplit(m, 0, nil)
		oddCycles := 0
		cl := pairEdges(m)
		for _, ch := range cl.decompose() {
			if ch.cycle && len(ch.edges)%2 == 1 {
				oddCycles++
			}
		}
		for v := 0; v < m.N(); v++ {
			if ColorDiscrepancy(m, res.Colors, v) > 1+2*oddCycles {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
