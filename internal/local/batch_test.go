// Batch determinism suite: every trial of a BatchRun must be bit-identical —
// outputs and full Stats — to a standalone SequentialEngine run with the same
// Options, whatever the worker count and however the trials' lifetimes
// interleave. Error handling is per-trial: one failing trial must not disturb
// its batchmates. A boxed trial runs on the sequential oracle inside the
// batch, so every program here also runs as a bit twin forced onto the word
// and bit planes, which drives the batch runner's own loops.
package local_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/prob"
)

// chatterbox terminates at a per-node, randomness-dependent round but sends
// on every round up to and including its last, so its messages routinely
// target neighbors that terminated rounds earlier — the delivered-message
// accounting and the buffer hygiene of every runner are both on the hook.
type chatterbox struct {
	v    local.View
	stop int
	acc  uint64
	out  []uint64
	idx  int
}

func (c *chatterbox) Round(r int, recv []local.Message) ([]local.Message, bool) {
	for p, m := range recv {
		if m != nil {
			c.acc = c.acc*1099511628211 + uint64(p)<<32 ^ m.(uint64)
		}
	}
	send := make([]local.Message, c.v.Deg)
	for p := range send {
		send[p] = c.acc ^ uint64(r)<<16 ^ uint64(p)
	}
	done := r >= c.stop
	if done {
		c.out[c.idx] = c.acc
	}
	return send, done
}

// chatterFactory staggers termination rounds over [1, spread] keyed by each
// node's private random stream.
func chatterFactory(spread int, out []uint64) local.Factory {
	idx := 0
	return func(v local.View) local.Node {
		c := &chatterbox{
			v:    v,
			stop: 1 + int(v.Rand.Uint64()%uint64(spread)),
			acc:  v.Rand.Uint64(),
			out:  out,
			idx:  idx,
		}
		idx++
		return c
	}
}

// bitChatter is chatterbox on the packed bit plane: the same staggered,
// randomness-keyed termination, and a present lane on every port up to and
// including the last round, so it hits terminated receivers just as often.
type bitChatter struct {
	stop int
	acc  uint64
	out  []uint64
	idx  int
}

func (c *bitChatter) RoundB(r int, recv, send local.BitRow) bool {
	for p := 0; p < recv.Len(); p++ {
		if recv.Has(p) {
			c.acc = c.acc*1099511628211 + uint64(p)<<32 ^ recv.Get(p)
		}
	}
	for p := 0; p < send.Len(); p++ {
		send.Set(p, (c.acc^uint64(r))>>(p%64)&1)
	}
	done := r >= c.stop
	if done {
		c.out[c.idx] = c.acc
	}
	return done
}

func bitChatterFactory(spread int, out []uint64) local.Factory {
	idx := 0
	return func(v local.View) local.Node {
		c := &bitChatter{
			stop: 1 + int(v.Rand.Uint64()%uint64(spread)),
			acc:  v.Rand.Uint64(),
			out:  out,
			idx:  idx,
		}
		idx++
		return local.BitProgram(c)
	}
}

// planeProg pairs a program with the plane its runs are forced onto.
type planeProg struct {
	name  string
	mk    func(k int, out []uint64) local.Factory
	plane local.Plane
}

// twins returns a boxed program and its bit twin forced onto the word and
// the bit plane. Boxed runs go to the sequential loop under every engine,
// so only the twins reach the pool's and the batch runner's own loops.
func twins(boxed, bit func(int, []uint64) local.Factory) []planeProg {
	return []planeProg{
		{"boxed", boxed, local.PlaneBoxed},
		{"word", bit, local.PlaneWord},
		{"bit", bit, local.PlaneBit},
	}
}

// sequentialReference runs one trial standalone on the sequential boxed
// loop — the oracle, whatever plane the trial itself is forced onto — and
// returns its outputs and stats, as the reference for the batched run.
func sequentialReference(t *testing.T, topo *local.Topology, mk func(out []uint64) local.Trial) ([]uint64, local.Stats) {
	t.Helper()
	out := make([]uint64, topo.N())
	trial := mk(out)
	opts := trial.Opts
	opts.Plane = local.PlaneBoxed
	stats, err := local.SequentialEngine{}.Run(topo, trial.Factory, opts)
	if err != nil {
		t.Fatalf("sequential reference: %v", err)
	}
	return out, stats
}

func TestBatchMatchesSequential(t *testing.T) {
	t.Parallel()
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"sparse", graph.RandomSparseGraph(400, 1200, prob.NewSource(5).Rand())},
		{"cycle", graph.Cycle(33)},
		{"path", graph.PathGraph(10)},
	}
	seeds := []uint64{3, 17, 99, 1234}
	for _, tg := range graphs {
		for _, workers := range []int{0, 1, 3} {
			tg, workers := tg, workers
			t.Run(fmt.Sprintf("%s/workers=%d", tg.name, workers), func(t *testing.T) {
				t.Parallel()
				topo := local.NewTopology(tg.g)
				n := tg.g.N()
				for _, p := range twins(chatterFactory, bitChatterFactory) {
					mk := func(seed uint64) func(out []uint64) local.Trial {
						return func(out []uint64) local.Trial {
							src := prob.NewSource(seed)
							return local.Trial{
								Factory: p.mk(9, out),
								Opts:    local.Options{Source: src, IDs: local.PermutationIDs(n, src.Fork(1)), Plane: p.plane},
							}
						}
					}
					wantOut := make([][]uint64, len(seeds))
					wantStats := make([]local.Stats, len(seeds))
					for i, seed := range seeds {
						wantOut[i], wantStats[i] = sequentialReference(t, topo, mk(seed))
					}
					gotOut := make([][]uint64, len(seeds))
					trials := make([]local.Trial, len(seeds))
					for i, seed := range seeds {
						gotOut[i] = make([]uint64, n)
						trials[i] = mk(seed)(gotOut[i])
					}
					stats, errs := local.BatchRun(topo, trials, local.BatchOptions{Workers: workers})
					for i := range seeds {
						if errs[i] != nil {
							t.Fatalf("%s trial %d: %v", p.name, i, errs[i])
						}
						if stats[i] != wantStats[i] {
							t.Errorf("%s trial %d stats %+v != sequential %+v", p.name, i, stats[i], wantStats[i])
						}
						for v := range gotOut[i] {
							if gotOut[i][v] != wantOut[i][v] {
								t.Fatalf("%s trial %d disagrees with sequential at node %d: %x vs %x",
									p.name, i, v, gotOut[i][v], wantOut[i][v])
							}
						}
					}
				}
			})
		}
	}
}

// TestBatchMatchesSequentialEchoHash reruns the cross-engine echo-hash
// program (and its bit twin on the word and bit planes) through the batch
// path: same graph, three seeds, outputs and Stats must match per-seed
// standalone runs.
func TestBatchMatchesSequentialEchoHash(t *testing.T) {
	t.Parallel()
	g := graph.RandomGraph(120, 0.05, prob.NewSource(77).Rand())
	topo := local.NewTopology(g)
	n := g.N()
	seeds := []uint64{1, 7, 42}
	for _, p := range twins(echoFactory, bitEchoFactory) {
		mk := func(seed uint64) func(out []uint64) local.Trial {
			return func(out []uint64) local.Trial {
				src := prob.NewSource(seed)
				return local.Trial{
					Factory: p.mk(4, out),
					Opts:    local.Options{Source: src, IDs: local.PermutationIDs(n, src.Fork(1)), Plane: p.plane},
				}
			}
		}
		var trials []local.Trial
		batchOut := make([][]uint64, len(seeds))
		for i, seed := range seeds {
			batchOut[i] = make([]uint64, n)
			trials = append(trials, mk(seed)(batchOut[i]))
		}
		stats, errs := local.BatchRun(topo, trials, local.BatchOptions{})
		for i, seed := range seeds {
			if errs[i] != nil {
				t.Fatalf("%s trial %d: %v", p.name, i, errs[i])
			}
			out, want := sequentialReference(t, topo, mk(seed))
			if stats[i] != want {
				t.Errorf("%s trial %d stats %+v != sequential %+v", p.name, i, stats[i], want)
			}
			for v := range out {
				if batchOut[i][v] != out[v] {
					t.Fatalf("%s trial %d output differs at node %d", p.name, i, v)
				}
			}
		}
	}
}

// TestBatchTrialErrorIsolation mixes a trial with invalid options, a trial
// whose program violates the port contract, and two healthy trials: the
// failures must land in their own error slots and the healthy trials must
// still match their standalone runs, on every plane the healthy trials
// take.
func TestBatchTrialErrorIsolation(t *testing.T) {
	t.Parallel()
	g := graph.Cycle(16)
	topo := local.NewTopology(g)
	n := g.N()
	for _, p := range twins(chatterFactory, bitChatterFactory) {
		healthy := func(out []uint64) local.Trial {
			src := prob.NewSource(8)
			return local.Trial{Factory: p.mk(5, out), Opts: local.Options{Source: src, Plane: p.plane}}
		}
		out0 := make([]uint64, n)
		out3 := make([]uint64, n)
		trials := []local.Trial{
			healthy(out0),
			{Factory: func(local.View) local.Node { return badSenderNode{} }, Opts: local.Options{}},
			{Factory: func(local.View) local.Node { return badSenderNode{} }, Opts: local.Options{IDs: []int{1, 2}}},
			healthy(out3),
			{Opts: local.Options{}}, // nil factory
		}
		stats, errs := local.BatchRun(topo, trials, local.BatchOptions{Workers: 2})
		if errs[1] == nil || !strings.Contains(errs[1].Error(), "ports") {
			t.Errorf("%s: port violation not reported: %v", p.name, errs[1])
		}
		if errs[2] == nil {
			t.Errorf("%s: short ID slice not reported", p.name)
		}
		if errs[4] == nil || !strings.Contains(errs[4].Error(), "nil Factory") {
			t.Errorf("%s: nil factory not reported: %v", p.name, errs[4])
		}
		wantOut, wantStats := sequentialReference(t, topo, healthy)
		for _, i := range []int{0, 3} {
			if errs[i] != nil {
				t.Fatalf("%s: healthy trial %d failed: %v", p.name, i, errs[i])
			}
			if stats[i] != wantStats {
				t.Errorf("%s: healthy trial %d stats %+v != sequential %+v", p.name, i, stats[i], wantStats)
			}
		}
		for v := range wantOut {
			if out0[v] != wantOut[v] || out3[v] != wantOut[v] {
				t.Fatalf("%s: healthy trial output differs at node %d", p.name, v)
			}
		}
	}
}

// badSenderNode sends the wrong number of messages (external-package twin of
// the internal badSender used by the engine tests).
type badSenderNode struct{}

func (badSenderNode) Round(int, []local.Message) ([]local.Message, bool) {
	return []local.Message{1, 2, 3, 4, 5}, false
}

// TestBatchPerTrialMaxRounds gives each trial its own cap around the exact
// finishing round: the trial at the boundary succeeds, the one a round short
// fails, and neither outcome leaks into the other trials — on the boxed
// trial's sequential loop and on the batched word and bit loops alike.
func TestBatchPerTrialMaxRounds(t *testing.T) {
	t.Parallel()
	g := graph.Cycle(20)
	topo := local.NewTopology(g)
	n := g.N()
	// echoFactory and bitEchoFactory (rounds, out) finish in round rounds+1.
	const rounds = 6
	for _, p := range twins(echoFactory, bitEchoFactory) {
		mk := func(maxRounds int) local.Trial {
			src := prob.NewSource(4)
			return local.Trial{
				Factory: p.mk(rounds, make([]uint64, n)),
				Opts:    local.Options{Source: src, MaxRounds: maxRounds, Plane: p.plane},
			}
		}
		trials := []local.Trial{mk(rounds + 1), mk(rounds), mk(0)}
		stats, errs := local.BatchRun(topo, trials, local.BatchOptions{})
		if errs[0] != nil {
			t.Errorf("%s: MaxRounds at the exact finishing round must succeed: %v", p.name, errs[0])
		}
		if stats[0].Rounds != rounds+1 {
			t.Errorf("%s: trial 0 ran %d rounds, want %d", p.name, stats[0].Rounds, rounds+1)
		}
		if errs[1] == nil || !strings.Contains(errs[1].Error(), "MaxRounds") {
			t.Errorf("%s: MaxRounds one short of the finishing round must fail: %v", p.name, errs[1])
		}
		if stats[1].Rounds != rounds {
			t.Errorf("%s: failed trial executed %d rounds, want %d", p.name, stats[1].Rounds, rounds)
		}
		if errs[2] != nil {
			t.Errorf("%s: defaulted MaxRounds trial failed: %v", p.name, errs[2])
		}
		if stats[2] != stats[0] {
			t.Errorf("%s: unbounded trial stats %+v != bounded twin %+v", p.name, stats[2], stats[0])
		}
	}
}

func TestBatchEdgeCases(t *testing.T) {
	t.Parallel()
	stats, errs := local.BatchRun(local.NewTopology(graph.Cycle(4)), nil, local.BatchOptions{})
	if len(stats) != 0 || len(errs) != 0 {
		t.Errorf("empty batch should return empty slices")
	}
	empty := local.NewTopology(graph.NewGraph(0))
	stats, errs = local.BatchRun(empty, []local.Trial{
		{Factory: func(local.View) local.Node { return badSenderNode{} }},
		{Factory: func(local.View) local.Node { return badSenderNode{} }},
	}, local.BatchOptions{})
	for i := range stats {
		if errs[i] != nil || stats[i].Rounds != 0 || stats[i].Messages != 0 {
			t.Errorf("trial %d on the empty topology should be free: %+v, %v", i, stats[i], errs[i])
		}
	}
}
