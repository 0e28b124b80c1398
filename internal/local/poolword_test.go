package local

import (
	"context"
	"errors"
	"testing"

	"repro/internal/graph"
	"repro/internal/prob"
)

// wordNoisyHalt sends on every port each round (including its final one) and
// terminates at a fixed per-node round, so long-lived neighbors keep
// delivering into rows of long-dead nodes.
type wordNoisyHalt struct{ stop int }

func (h *wordNoisyHalt) RoundW(r int, recv, send []Word) bool {
	Broadcast(send, MakeWord(1, uint64(r)))
	return r >= h.stop
}

// wordNoisyStop is the termination schedule for node index v: most nodes halt
// within the first few rounds while every 40th node runs for `long` rounds.
func wordNoisyStop(v, long int) int {
	stop := 1 + v%4
	if v%40 == 0 {
		stop = long
	}
	return stop
}

// noisyFactory builds the buffer-hygiene stress program on the word plane
// (bit false) or the bit plane. When cancel is non-nil, node 0 fires it in
// round cancelAt, so a controlled trial stops mid-run.
func noisyFactory(bit bool, long, cancelAt int, cancel context.CancelFunc) Factory {
	idx := 0
	return func(View) Node {
		stop := wordNoisyStop(idx, long)
		fire := cancel != nil && idx == 0
		idx++
		maybeCancel := func(r int) {
			if fire && r == cancelAt {
				cancel()
			}
		}
		if bit {
			h := &bitNoisyHalt{stop: stop}
			return BitProgram(Bit2Func(func(r int, recv, send BitRow) bool {
				maybeCancel(r)
				return h.RoundB(r, recv, send)
			}))
		}
		h := &wordNoisyHalt{stop: stop}
		return WordProgram(WordFunc(func(r int, recv, send []Word) bool {
			maybeCancel(r)
			return h.RoundW(r, recv, send)
		}))
	}
}

// checkPlanesClear fails on any word or lane bit left in a finished batch's
// planes, word and bit alike.
func checkPlanesClear(t *testing.T, pl *batchPlanes) {
	t.Helper()
	for i := range pl.winbox {
		if pl.winbox[i] != NilWord || pl.wnext[i] != NilWord {
			t.Fatalf("stale word retained in word slot %d: %#x/%#x", i, uint64(pl.winbox[i]), uint64(pl.wnext[i]))
		}
	}
	for _, p := range []bitPlane{pl.binbox, pl.bnext} {
		for i, w := range p.lanes {
			if w != 0 {
				t.Fatalf("stale lane bits retained in bit word %d: %#x", i, w)
			}
		}
	}
}

// checkNoisyPlanes runs the stress program on both planes of the batch
// loop, in two shapes, and requires the planes to come back all-clear: a
// one-trial run (the pool's shape), where rows are cleared on consumption
// and terminated-node rows at compaction; and a word+bit two-trial batch in
// which one trial finishes early while the other — on the plane under test
// (bit true: the bit plane) — is cancelled mid-run, so clearTrial must
// wipe the cancelled trial's regions. Finished trials' Stats must match the
// boxed oracle exactly.
func checkNoisyPlanes(t *testing.T, bit bool) {
	g := graph.RandomGraph(200, 0.06, prob.NewSource(21).Rand())
	topo := NewTopology(g)
	const long, short, cancelAt = 60, 8, 20
	oracle := func(bit bool, long int) Stats {
		st, err := Oracle.Run(topo, noisyFactory(bit, long, 0, nil), Options{})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	stats, errs, pl, _ := batchRun(topo, []Trial{{Factory: noisyFactory(bit, long, 0, nil)}}, BatchOptions{Workers: 3})
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	if stats[0].Rounds != long {
		t.Errorf("rounds=%d, want %d", stats[0].Rounds, long)
	}
	if want := oracle(bit, long); stats[0] != want {
		t.Errorf("stats differ: pool=%+v oracle=%+v", stats[0], want)
	}
	checkPlanesClear(t, &pl)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stats, errs, pl, _ = batchRun(topo, []Trial{
		{Factory: noisyFactory(bit, long, cancelAt, cancel), Opts: Options{Control: &RunControl{Ctx: ctx}}},
		{Factory: noisyFactory(!bit, short, 0, nil)},
	}, BatchOptions{Workers: 3})
	if !errors.Is(errs[0], ErrCancelled) || stats[0].Rounds != cancelAt {
		t.Errorf("cancelled trial: err %v after %d rounds, want ErrCancelled after %d", errs[0], stats[0].Rounds, cancelAt)
	}
	if errs[1] != nil {
		t.Fatal(errs[1])
	}
	if want := oracle(!bit, short); stats[1] != want {
		t.Errorf("early trial stats differ: batch=%+v oracle=%+v", stats[1], want)
	}
	checkPlanesClear(t, &pl)
}

// TestWorkerPoolWordClearsTerminatedRows is the stale-inbox regression test:
// in a long-lived run where most nodes halt early, messages delivered to a
// node's next row after it terminated used to be retained (never cleared,
// never consumed) for the rest of the run. On the word plane, see
// checkNoisyPlanes.
func TestWorkerPoolWordClearsTerminatedRows(t *testing.T) {
	checkNoisyPlanes(t, false)
}
