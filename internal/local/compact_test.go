package local

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/prob"
)

// wordProbe is pullProbe's word-plane twin: a WordNode that folds every
// received word into a running hash, publishes it to out every round, sends
// hash-keyed words on some ports and leaves the rest silent, and stops at
// its own round.
type wordProbe struct {
	idx, stop int
	acc       uint64
	out       []uint64
	cancelAt  int // round in which node 0 fires cancel (0: never)
	cancel    context.CancelFunc
}

func (n *wordProbe) RoundW(r int, recv, send []Word) bool {
	h := n.acc ^ uint64(r)
	for p, m := range recv {
		if m != NilWord {
			h = (h ^ uint64(p)<<8 ^ uint64(m)) * 1099511628211
		}
	}
	n.acc = h
	n.out[n.idx] = h
	if r == n.cancelAt && n.idx == 0 {
		n.cancel()
	}
	for p := range send {
		if h>>(uint(p)%61)&1 != 0 {
			send[p] = MakeWord(1, h>>(uint(p+5)%59))
		}
	}
	return r >= n.stop
}

// wordProbeFactory builds wordProbes stopping at stop(idx).
func wordProbeFactory(stop func(int) int, out []uint64, cancelAt int, cancel context.CancelFunc) Factory {
	idx := 0
	return func(View) Node {
		n := &wordProbe{idx: idx, stop: stop(idx), out: out, cancelAt: cancelAt, cancel: cancel}
		idx++
		return WordProgram(n)
	}
}

// quietStop retires three tenths of the nodes in round 2, none in round 3
// and a fifth in round 4, while the active set is still dense enough to
// pull, then staggers the rest: round 3 is a quiet pull round, which skips
// compaction but still owes round 2's retirees their second slot clear.
func quietStop(idx int) int {
	switch {
	case idx%10 < 3:
		return 2
	case idx%10 < 5:
		return 4
	case idx%37 == 0:
		return 30
	}
	return 6 + idx%7
}

// TestParallelCompactionMatchesOracle pins BatchRun's compaction against
// the boxed oracle. pullStop retires about a fifth of the nodes in each of
// rounds 2–5 and the rest over a sparse tail, so most rounds retire part of
// the active set; quietStop adds a quiet round between two retiring dense
// ones. At the package's lowered batchMinShard those retirees weigh many
// units, and on 2 and 4 workers their compaction runs on the pool across
// several units (the one-worker pool runs it inline). Every program shape —
// casters, pushers and both mixed, at widths 1 and 2, and a word program —
// under both stop schedules must give the oracle's outputs, Stats and
// error: on a clean finish, under a fault plan (drops, delays and crashes,
// which also retire nodes at the fault boundary), and when a cancel fired
// in round 2 ends the run between two mass-retirement rounds, where the
// outputs of the rounds that ran must equal the oracle's prefix. Each pool
// size also runs the clean and the faulty trial together in one batch.
func TestParallelCompactionMatchesOracle(t *testing.T) {
	t.Parallel()
	g := graph.RandomGraph(400, 0.02, prob.NewSource(43).Rand())
	topo := NewTopology(g)
	n := topo.N()
	stops := []struct {
		name string
		f    func(int) int
	}{{"staggered", pullStop}, {"quiet", quietStop}}
	// The fixture must retire several units' weight at once, or every
	// compaction would run inline.
	for _, stop := range stops {
		w2 := int64(0)
		for v := 0; v < n; v++ {
			if stop.f(v) == 2 {
				w2 += 1 + int64(topo.off[v+1]-topo.off[v])
			}
		}
		if w2 < 4*batchMinShard {
			t.Fatalf("%s: round 2 retires weight %d, want several units of %d", stop.name, w2, batchMinShard)
		}
	}
	type progCase struct {
		name string
		mk   func(stop func(int) int, out []uint64, cancelAt int, cancel context.CancelFunc) Factory
	}
	bitCase := func(pc pullCase) progCase {
		plane := planeWords(len(topo.adj), int(max(pc.width, 1)))
		return progCase{pc.name, func(stop func(int) int, out []uint64, cancelAt int, cancel context.CancelFunc) Factory {
			var gathered atomic.Bool
			pc.stop = stop
			return pc.factory(out, &gathered, plane, cancelAt, cancel)
		}}
	}
	progs := []progCase{
		bitCase(pullCase{name: "casters"}),
		bitCase(pullCase{name: "pushers", pusher: func(int) bool { return true }}),
		bitCase(pullCase{name: "mixed", pusher: func(i int) bool { return i%3 == 0 }}),
		bitCase(pullCase{name: "casters-w2", width: 2}),
		bitCase(pullCase{name: "mixed-w2", pusher: func(i int) bool { return i%4 == 1 }, width: 2}),
		{"word", wordProbeFactory},
	}
	faults := &FaultPlan{Seed: 13, Drop: 0.15, Delay: 2, Crash: 0.01}
	for _, pc := range progs {
		for _, stop := range stops {
			for _, cancelAt := range []int{0, 2} {
				compactCase(t, topo, pc.name+"/"+stop.name, cancelAt, faults,
					func(out []uint64, cancelAt int, cancel context.CancelFunc) Factory {
						return pc.mk(stop.f, out, cancelAt, cancel)
					})
			}
		}
	}
}

// compactResult is one run's outputs, Stats and error.
type compactResult struct {
	out []uint64
	st  Stats
	err error
}

// compactCase runs one program of TestParallelCompactionMatchesOracle on
// pools of 1, 2 and 4 workers, clean and under faults, and as a 2-trial
// batch, against the oracle; cancelAt > 0 cancels the runs in that round.
func compactCase(t *testing.T, topo *Topology, name string, cancelAt int, faults *FaultPlan,
	mk func(out []uint64, cancelAt int, cancel context.CancelFunc) Factory) {
	t.Helper()
	n := topo.N()
	if cancelAt > 0 {
		name += "/cancel"
	} else {
		name += "/finish"
	}
	// opts builds a run's options with a fresh cancel context, so each run
	// observes its own cancellation.
	opts := func(seed uint64, fp *FaultPlan) (Options, context.CancelFunc) {
		o := Options{Source: prob.NewSource(seed), Faults: fp}
		ctx, cancel := context.WithCancel(context.Background())
		if cancelAt > 0 {
			o.Control = &RunControl{Ctx: ctx}
		}
		return o, cancel
	}
	oracle := func(seed uint64, fp *FaultPlan) compactResult {
		out := make([]uint64, n)
		o, cancel := opts(seed, fp)
		defer cancel()
		st, err := Oracle.Run(topo, mk(out, cancelAt, cancel), o)
		return compactResult{out, st, err}
	}
	check := func(eng string, got, want compactResult) {
		t.Helper()
		if fmt.Sprint(got.err) != fmt.Sprint(want.err) || errors.Is(got.err, ErrCancelled) != errors.Is(want.err, ErrCancelled) {
			t.Errorf("%s/%s: err %v, oracle %v", name, eng, got.err, want.err)
		}
		if got.st != want.st {
			t.Errorf("%s/%s: stats %+v, oracle %+v", name, eng, got.st, want.st)
		}
		for v := range got.out {
			if got.out[v] != want.out[v] {
				t.Errorf("%s/%s: node %d output %#x, oracle %#x", name, eng, v, got.out[v], want.out[v])
				break
			}
		}
	}
	clean, faulty := oracle(7, nil), oracle(8, faults)
	if cancelAt > 0 && !errors.Is(clean.err, ErrCancelled) {
		t.Fatalf("%s: the oracle was not cancelled (err %v)", name, clean.err)
	}
	for _, nw := range []int{1, 2, 4} {
		for _, fp := range []*FaultPlan{nil, faults} {
			seed, want, kind := uint64(7), clean, "clean"
			if fp != nil {
				seed, want, kind = 8, faulty, "faulty"
			}
			out := make([]uint64, n)
			o, cancel := opts(seed, fp)
			st, err := WorkerPoolEngine{Workers: nw}.Run(topo, mk(out, cancelAt, cancel), o)
			cancel()
			check(fmt.Sprintf("pool-%d/%s", nw, kind), compactResult{out, st, err}, want)
		}
		outs := [2][]uint64{make([]uint64, n), make([]uint64, n)}
		o0, cancel0 := opts(7, nil)
		o1, cancel1 := opts(8, faults)
		stats, errs := BatchRun(topo, []Trial{
			{Factory: mk(outs[0], cancelAt, cancel0), Opts: o0},
			{Factory: mk(outs[1], cancelAt, cancel1), Opts: o1},
		}, BatchOptions{Workers: nw})
		cancel0()
		cancel1()
		check(fmt.Sprintf("batch-%d/clean", nw), compactResult{outs[0], stats[0], errs[0]}, clean)
		check(fmt.Sprintf("batch-%d/faulty", nw), compactResult{outs[1], stats[1], errs[1]}, faulty)
	}
}
