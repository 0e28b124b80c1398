package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/prob"
)

func TestShatterLocalMatchesCentralized(t *testing.T) {
	b, err := graph.RandomBipartiteBiregular(100, 400, 16, prob.NewSource(1).Rand())
	if err != nil {
		t.Fatal(err)
	}
	src := prob.NewSource(2)
	central := Shatter(b, src)
	distributed, stats, err := ShatterLocal(b, local.SequentialEngine{}, src)
	if err != nil {
		t.Fatal(err)
	}
	for v := range central.Colors {
		if central.Colors[v] != distributed.Colors[v] {
			t.Fatalf("colors diverge at variable %d: %d vs %d", v, central.Colors[v], distributed.Colors[v])
		}
	}
	for u := range central.UnsatU {
		if central.UnsatU[u] != distributed.UnsatU[u] {
			t.Fatalf("satisfaction diverges at constraint %d", u)
		}
	}
	if stats.Rounds != 4 {
		t.Errorf("node program took %d rounds, want 4", stats.Rounds)
	}
}

func TestShatterLocalEnginesAgree(t *testing.T) {
	b, err := graph.RandomBipartiteLeftRegular(40, 120, 10, prob.NewSource(3).Rand())
	if err != nil {
		t.Fatal(err)
	}
	src := prob.NewSource(4)
	seq, _, err := ShatterLocal(b, local.SequentialEngine{}, src)
	if err != nil {
		t.Fatal(err)
	}
	pool, _, err := ShatterLocal(b, local.WorkerPoolEngine{Workers: 3}, src)
	if err != nil {
		t.Fatal(err)
	}
	for v := range seq.Colors {
		if seq.Colors[v] != pool.Colors[v] {
			t.Fatal("engines disagree on shattering colors")
		}
	}
}

func TestLocalCheckAcceptsValid(t *testing.T) {
	b, err := graph.RandomBipartiteLeftRegular(50, 70, 15, prob.NewSource(5).Rand())
	if err != nil {
		t.Fatal(err)
	}
	res, err := BasicDerandomized(b, local.SequentialEngine{})
	if err != nil {
		t.Fatal(err)
	}
	votes, allYes, err := LocalCheck(b, res.Colors, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !allYes {
		t.Fatal("1-round verifier rejected a valid splitting")
	}
	for u, v := range votes {
		if !v {
			t.Fatalf("constraint %d voted no on a valid splitting", u)
		}
	}
}

func TestLocalCheckRejectsInvalid(t *testing.T) {
	b, err := graph.RandomBipartiteLeftRegular(20, 30, 8, prob.NewSource(6).Rand())
	if err != nil {
		t.Fatal(err)
	}
	// All-red: every constraint must vote no.
	colors := make([]int, b.NV())
	votes, allYes, err := LocalCheck(b, colors, local.WorkerPoolEngine{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if allYes {
		t.Fatal("verifier accepted an all-red coloring")
	}
	for u, v := range votes {
		if v {
			t.Fatalf("constraint %d accepted a monochromatic neighborhood", u)
		}
	}
	if _, _, err := LocalCheck(b, colors[:3], nil); err == nil {
		t.Error("wrong color-slice length must be rejected")
	}
}

func TestLocalCheckPinpointsViolation(t *testing.T) {
	// A valid splitting with one variable flipped: only constraints whose
	// entire red (or blue) supply came from that variable may flip to "no".
	b, err := graph.RandomBipartiteLeftRegular(40, 60, 12, prob.NewSource(7).Rand())
	if err != nil {
		t.Fatal(err)
	}
	res, err := BasicDerandomized(b, local.SequentialEngine{})
	if err != nil {
		t.Fatal(err)
	}
	colors := append([]int(nil), res.Colors...)
	colors[0] = 1 - colors[0]
	votes, _, err := LocalCheck(b, colors, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Every "no" vote must be a constraint adjacent to variable 0.
	adj := make(map[int]bool)
	for _, u := range b.NbrV(0) {
		adj[int(u)] = true
	}
	for u, v := range votes {
		if !v && !adj[u] {
			t.Fatalf("constraint %d rejected but is not adjacent to the flipped variable", u)
		}
	}
}
