// Cross-engine determinism suite: every engine must produce bit-identical
// outputs and identical round counts on every program, because per-node
// randomness is keyed by (seed, ID) and never by scheduling. This is the
// correctness harness for the throughput loop (WorkerPoolEngine, the
// one-trial BatchRun) — a scheduling leak anywhere in the unit carve shows
// up here as an engine disagreement.
package local_test

import (
	"fmt"
	"testing"

	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/mis"
	"repro/internal/prob"
)

// engines under test; every program below runs under all of them and every
// pair of runs must agree exactly. The pool rows are the one-trial
// BatchRun: at one worker its units run inline, at three they run
// concurrently (the package's tests lower the unit minimum so these small
// fixtures carve several units).
func allEngines() []struct {
	name string
	e    local.Engine
} {
	return []struct {
		name string
		e    local.Engine
	}{
		{"seq", local.SequentialEngine{}},
		{"pool", local.WorkerPoolEngine{}},
		{"pool-1", local.WorkerPoolEngine{Workers: 1}},
		{"pool-3", local.WorkerPoolEngine{Workers: 3}},
	}
}

// echoHash draws random values, exchanges them with neighbors for a few
// rounds, and outputs a rolling hash of everything it saw — a program whose
// output depends on every delivered message and every random draw.
type echoHash struct {
	v      View
	acc    uint64
	rounds int
	out    []uint64
	idx    int
}

type View = local.View

func (n *echoHash) Round(r int, recv []local.Message) ([]local.Message, bool) {
	for p, m := range recv {
		if m != nil {
			n.acc = n.acc*1099511628211 + uint64(p) ^ m.(uint64)
		}
	}
	if r > n.rounds {
		n.out[n.idx] = n.acc
		return nil, true
	}
	x := n.v.Rand.Uint64()
	send := make([]local.Message, n.v.Deg)
	for p := range send {
		send[p] = x ^ uint64(p)
	}
	return send, false
}

func echoFactory(rounds int, out []uint64) local.Factory {
	idx := 0
	return func(v View) local.Node {
		n := &echoHash{v: v, rounds: rounds, out: out, idx: idx}
		idx++
		return n
	}
}

// testGraph names one generated topology.
type testGraph struct {
	name string
	g    *graph.Graph
}

func determinismGraphs(t *testing.T) []testGraph {
	t.Helper()
	var gs []testGraph
	add := func(name string, g *graph.Graph, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		gs = append(gs, testGraph{name, g})
	}
	rng := prob.NewSource(901).Rand()
	add("random-sparse", graph.RandomGraph(120, 0.04, rng), nil)
	add("random-dense", graph.RandomGraph(80, 0.3, rng), nil)
	reg, err := graph.RandomRegular(96, 8, rng)
	add("regular", reg, err)
	add("cycle", graph.Cycle(64), nil)
	add("path", graph.PathGraph(40), nil)
	bip, err := graph.RandomBipartiteLeftRegular(24, 72, 9, rng)
	add("bipartite", bip.AsGraph(), err)
	star, err := graph.SubdividedStar(16)
	add("bipartite-star", star.AsGraph(), err)
	return gs
}

// crossEngineCheck runs one program variant under every engine and
// compares each run with the sequential boxed oracle: same Stats, same
// outputs. It returns the oracle's outputs and Stats.
func crossEngineCheck(t *testing.T, topo *local.Topology, p planeProg, k int, mkOpts func() local.Options) ([]uint64, local.Stats) {
	t.Helper()
	n := topo.N()
	refOut := make([]uint64, n)
	refOpts := mkOpts()
	refOpts.Plane = local.PlaneBoxed
	refStats, err := local.SequentialEngine{}.Run(topo, p.mk(k, refOut), refOpts)
	if err != nil {
		t.Fatalf("%s/oracle: %v", p.name, err)
	}
	for _, eng := range allEngines() {
		out := make([]uint64, n)
		opts := mkOpts()
		opts.Plane = p.plane
		stats, err := eng.e.Run(topo, p.mk(k, out), opts)
		if err != nil {
			t.Fatalf("%s/%s: %v", p.name, eng.name, err)
		}
		if stats != refStats {
			t.Errorf("%s/%s stats %+v != seq stats %+v", p.name, eng.name, stats, refStats)
		}
		for v := range out {
			if out[v] != refOut[v] {
				t.Fatalf("%s/%s disagrees with seq at node %d: %x vs %x", p.name, eng.name, v, out[v], refOut[v])
			}
		}
	}
	return refOut, refStats
}

// TestCrossEngineDeterminismEchoHash is the randomized property test: 7
// generated graphs × 3 seeds = 21 (graph, seed) combos, each run under every
// engine configuration of the message-exchange program — boxed, and its bit
// twin on the word and bit planes.
func TestCrossEngineDeterminismEchoHash(t *testing.T) {
	for _, tg := range determinismGraphs(t) {
		for _, seed := range []uint64{1, 7, 42} {
			tg, seed := tg, seed
			t.Run(fmt.Sprintf("%s/seed=%d", tg.name, seed), func(t *testing.T) {
				t.Parallel()
				topo := local.NewTopology(tg.g)
				mkOpts := func() local.Options {
					src := prob.NewSource(seed)
					return local.Options{Source: src, IDs: local.PermutationIDs(tg.g.N(), src.Fork(1))}
				}
				for _, p := range twins(echoFactory, bitEchoFactory) {
					crossEngineCheck(t, topo, p, 4, mkOpts)
				}
			})
		}
	}
}

// TestCrossEngineDeterminismChatterbox is the accounting stress test:
// termination rounds are staggered per node, and nodes send on every round
// up to and including their last, so many messages target already-terminated
// neighbors. Stats must agree exactly — Messages counts only delivered
// messages, a boundary every engine (and the batch runner) must draw at the
// same place on every plane.
func TestCrossEngineDeterminismChatterbox(t *testing.T) {
	for _, tg := range determinismGraphs(t) {
		for _, seed := range []uint64{5, 23} {
			tg, seed := tg, seed
			t.Run(fmt.Sprintf("%s/seed=%d", tg.name, seed), func(t *testing.T) {
				t.Parallel()
				topo := local.NewTopology(tg.g)
				n := tg.g.N()
				mkOpts := func() local.Options {
					src := prob.NewSource(seed)
					return local.Options{Source: src, IDs: local.PermutationIDs(n, src.Fork(1))}
				}
				for _, p := range twins(chatterFactory, bitChatterFactory) {
					refOut, refStats := crossEngineCheck(t, topo, p, 7, mkOpts)
					// The batch path must draw the same boundary.
					out := make([]uint64, n)
					opts := mkOpts()
					opts.Plane = p.plane
					stats, errs := local.BatchRun(topo, []local.Trial{{Factory: p.mk(7, out), Opts: opts}}, local.BatchOptions{})
					if errs[0] != nil {
						t.Fatalf("%s/batch: %v", p.name, errs[0])
					}
					if stats[0] != refStats {
						t.Errorf("%s/batch stats %+v != seq stats %+v", p.name, stats[0], refStats)
					}
					for v := range out {
						if out[v] != refOut[v] {
							t.Fatalf("%s/batch disagrees with seq at node %d", p.name, v)
						}
					}
				}
			})
		}
	}
}

// TestCrossEngineDeterminismColoring runs the real Δ+1 coloring program —
// multiple phases, per-node inputs, data-dependent termination — under all
// engines and demands identical colorings and round counts.
func TestCrossEngineDeterminismColoring(t *testing.T) {
	graphs := determinismGraphs(t)
	if testing.Short() {
		graphs = graphs[:4]
	}
	for _, tg := range graphs {
		tg := tg
		t.Run(tg.name, func(t *testing.T) {
			t.Parallel()
			src := prob.NewSource(17)
			ids := local.PermutationIDs(tg.g.N(), src.Fork(2))
			var ref *coloring.Result
			for i, eng := range allEngines() {
				res, err := coloring.DeltaPlusOne(tg.g, eng.e, local.Options{IDs: ids})
				if err != nil {
					t.Fatalf("%s: %v", eng.name, err)
				}
				if i == 0 {
					ref = res
					continue
				}
				if res.Stats != ref.Stats || res.Num != ref.Num {
					t.Errorf("%s: stats/palette differ: %+v/%d vs %+v/%d",
						eng.name, res.Stats, res.Num, ref.Stats, ref.Num)
				}
				for v := range res.Colors {
					if res.Colors[v] != ref.Colors[v] {
						t.Fatalf("%s: color differs at node %d: %d vs %d", eng.name, v, res.Colors[v], ref.Colors[v])
					}
				}
			}
		})
	}
}

// TestCrossEngineDeterminismMIS exercises a two-phase pipeline (coloring,
// then greedy-by-color MIS) whose second phase consumes the first phase's
// outputs as inputs.
func TestCrossEngineDeterminismMIS(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by the coloring and echo-hash suites in short mode")
	}
	g, err := graph.RandomRegular(72, 6, prob.NewSource(31).Rand())
	if err != nil {
		t.Fatal(err)
	}
	var ref *mis.Result
	for i, eng := range allEngines() {
		res, err := mis.GreedyByColor(g, eng.e, local.Options{})
		if err != nil {
			t.Fatalf("%s: %v", eng.name, err)
		}
		if i == 0 {
			ref = res
			continue
		}
		if res.Trace.Rounds() != ref.Trace.Rounds() {
			t.Errorf("%s: rounds %d != %d", eng.name, res.Trace.Rounds(), ref.Trace.Rounds())
		}
		for v := range res.InSet {
			if res.InSet[v] != ref.InSet[v] {
				t.Fatalf("%s: MIS membership differs at node %d", eng.name, v)
			}
		}
	}
}
