package local

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/prob"
)

// sleepProbe is a WordSleeper that folds its mail into a running hash,
// publishes the hash every round it acts, sends hash-keyed words on some
// ports and then draws its next wake round from its own stream, without
// regard to the mail its neighbours will send it: it regularly sleeps
// through mail, and only the loop's mail stamps wake it. Every fifth node
// never sleeps. Called while asleep with a silent inbox it does nothing,
// which is the WordSleeper contract, so the boxed oracle's every-round
// calls see the same node. calls counts RoundW calls over the run.
type sleepProbe struct {
	idx, stop int
	wake      int // the round the node asked to run next
	never     bool
	acc       uint64
	rng       *rand.Rand
	out       []uint64
	calls     *atomic.Int64
	cancelAt  int // round in which node 0 fires cancel (0: never)
	cancel    context.CancelFunc
}

func (n *sleepProbe) RoundW(r int, recv, send []Word) bool {
	n.calls.Add(1)
	mail := false
	h := n.acc
	for p, m := range recv {
		if m != NilWord {
			mail = true
			h = (h ^ uint64(p)<<8 ^ uint64(m)) * 1099511628211
		}
	}
	if !mail && r < n.wake {
		return false
	}
	h ^= uint64(r)
	n.acc = h
	n.out[n.idx] = h
	if r == n.cancelAt && n.idx == 0 {
		n.cancel()
	}
	for p := range send {
		if h>>(uint(p)%61)&3 == 0 {
			send[p] = MakeWord(1, h>>(uint(p+5)%59))
		}
	}
	if r >= n.stop {
		return true
	}
	n.wake = r + 1
	if !n.never {
		n.wake += n.rng.IntN(7)
	}
	return false
}

func (n *sleepProbe) WakeW(int) int { return n.wake }

// awake hides a program's WakeW, so a trial of it never sleeps.
type awake struct{ WordNode }

// sleepProbeFactory builds sleepProbes that stop at round 12 + idx%9, or
// as non-sleepers when sleep is false.
func sleepProbeFactory(sleep bool, out []uint64, calls *atomic.Int64, cancelAt int, cancel context.CancelFunc) Factory {
	idx := 0
	return func(v View) Node {
		n := &sleepProbe{idx: idx, stop: 12 + idx%9, never: idx%5 == 0, rng: v.Rand, out: out,
			calls: calls, cancelAt: cancelAt, cancel: cancel}
		idx++
		if !sleep {
			return WordProgram(awake{n})
		}
		return WordProgram(n)
	}
}

// TestSleepingWordMatchesOracle pins the word loop's sleeping against the
// boxed oracle, which calls every node every round. sleepProbe trials run
// on seq and on pools of 1, 2 and 7 workers: finishing cleanly, cut by
// MaxRounds, and cancelled in round 5, where the outputs of the rounds that
// ran must equal the cancelled oracle's. A faulty trial must match the
// oracle with sleeping off (as many RoundW calls as the oracle makes), and
// a clean one must sleep (fewer calls). Each pool size also runs one batch
// of a sleeping, a non-sleeping and a faulty trial of the same program.
func TestSleepingWordMatchesOracle(t *testing.T) {
	t.Parallel()
	g := graph.RandomGraph(300, 0.03, prob.NewSource(61).Rand())
	topo := NewTopology(g)
	n := topo.N()
	faults := &FaultPlan{Seed: 17, Drop: 0.1, Delay: 2, Crash: 0.01}
	type result struct {
		out   []uint64
		calls int64
		st    Stats
		err   error
	}
	check := func(name string, got, want result) {
		t.Helper()
		if fmt.Sprint(got.err) != fmt.Sprint(want.err) || errors.Is(got.err, ErrCancelled) != errors.Is(want.err, ErrCancelled) {
			t.Errorf("%s: err %v, oracle %v", name, got.err, want.err)
		}
		if got.st != want.st {
			t.Errorf("%s: stats %+v, oracle %+v", name, got.st, want.st)
		}
		for v := range got.out {
			if got.out[v] != want.out[v] {
				t.Errorf("%s: node %d output %#x, oracle %#x", name, v, got.out[v], want.out[v])
				break
			}
		}
	}
	for _, sc := range []struct {
		name      string
		maxRounds int
		cancelAt  int
	}{{"finish", 0, 0}, {"maxrounds", 9, 0}, {"cancel", 0, 5}} {
		// setup builds one trial: a fresh result, its factory and options.
		setup := func(sleep bool, seed uint64, fp *FaultPlan) (*result, Trial, context.CancelFunc) {
			res := &result{out: make([]uint64, n)}
			ctx, cancel := context.WithCancel(context.Background())
			o := Options{Source: prob.NewSource(seed), Faults: fp, MaxRounds: sc.maxRounds}
			if sc.cancelAt > 0 {
				o.Control = &RunControl{Ctx: ctx}
			}
			var calls atomic.Int64
			f := sleepProbeFactory(sleep, res.out, &calls, sc.cancelAt, cancel)
			return res, Trial{Factory: f, Opts: o}, func() { res.calls = calls.Load(); cancel() }
		}
		run := func(eng Engine, sleep bool, seed uint64, fp *FaultPlan) result {
			res, tr, done := setup(sleep, seed, fp)
			res.st, res.err = eng.Run(topo, tr.Factory, tr.Opts)
			done()
			return *res
		}
		clean, faulty := run(Oracle, true, 7, nil), run(Oracle, true, 8, faults)
		if sc.cancelAt > 0 && !errors.Is(clean.err, ErrCancelled) {
			t.Fatalf("%s: the oracle was not cancelled (err %v)", sc.name, clean.err)
		}
		if sc.maxRounds > 0 && clean.err == nil {
			t.Fatalf("%s: the oracle was not cut (stats %+v)", sc.name, clean.st)
		}
		engines := []struct {
			name string
			eng  Engine
		}{{"seq", SequentialEngine{}}, {"pool-1", WorkerPoolEngine{Workers: 1}},
			{"pool-2", WorkerPoolEngine{Workers: 2}}, {"pool-7", WorkerPoolEngine{Workers: 7}}}
		for _, e := range engines {
			name := sc.name + "/" + e.name
			got := run(e.eng, true, 7, nil)
			check(name+"/clean", got, clean)
			if got.calls >= clean.calls {
				t.Errorf("%s/clean: %d RoundW calls, the oracle made %d: no node slept", name, got.calls, clean.calls)
			}
			got = run(e.eng, true, 8, faults)
			check(name+"/faulty", got, faulty)
			if got.calls != faulty.calls {
				t.Errorf("%s/faulty: %d RoundW calls, the oracle made %d: a faulty trial must not sleep", name, got.calls, faulty.calls)
			}
			if got := run(e.eng, false, 7, nil); got.calls != clean.calls {
				t.Errorf("%s/awake: %d RoundW calls, the oracle made %d: a non-sleeper must not sleep", name, got.calls, clean.calls)
			}
		}
		for _, nw := range []int{1, 2, 7} {
			sleeping, t0, done0 := setup(true, 7, nil)
			awakeRes, t1, done1 := setup(false, 7, nil)
			faultRes, t2, done2 := setup(true, 8, faults)
			stats, errs := BatchRun(topo, []Trial{t0, t1, t2}, BatchOptions{Workers: nw})
			done0()
			done1()
			done2()
			for i, r := range []*result{sleeping, awakeRes, faultRes} {
				r.st, r.err = stats[i], errs[i]
			}
			name := fmt.Sprintf("%s/batch-%d", sc.name, nw)
			check(name+"/sleeping", *sleeping, clean)
			check(name+"/awake", *awakeRes, clean)
			check(name+"/faulty", *faultRes, faulty)
			if sleeping.calls >= awakeRes.calls {
				t.Errorf("%s: the sleeping trial made %d RoundW calls, the awake one %d", name, sleeping.calls, awakeRes.calls)
			}
		}
	}
}
