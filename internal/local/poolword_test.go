package local

import (
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

// TestWorkerPoolWordClearsTerminatedRows is the stale-inbox regression test:
// in a long-lived run where most nodes halt early, messages delivered to a
// node's next row after it terminated used to be retained (never cleared,
// never consumed) for the rest of the run. On a clean finish both word
// planes must come back all-NilWord (rows are cleared on consumption and at
// termination), and Stats must match the sequential engine exactly.
func TestWorkerPoolWordClearsTerminatedRows(t *testing.T) {
	g := graph.RandomGraph(200, 0.06, prob.NewSource(21).Rand())
	topo := NewTopology(g)
	const long = 60
	n := topo.N()
	nodes := make([]WordNode, n)
	for v := range nodes {
		nodes[v] = &wordNoisyHalt{stop: wordNoisyStop(v, long)}
	}
	e := WorkerPoolEngine{Workers: 3}
	stats, inbox, next, err := e.runWord(topo, nodes, defaultMaxRounds, e.workerCount(n), nil, nil, Tuning{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != long {
		t.Errorf("rounds=%d, want %d", stats.Rounds, long)
	}
	for i := range inbox {
		if inbox[i] != NilWord {
			t.Fatalf("stale word retained in inbox slot %d: %#x", i, uint64(inbox[i]))
		}
		if next[i] != NilWord {
			t.Fatalf("stale word retained in next slot %d: %#x", i, uint64(next[i]))
		}
	}
	idx := 0
	factory := func(View) Node {
		node := WordProgram(&wordNoisyHalt{stop: wordNoisyStop(idx, long)})
		idx++
		return node
	}
	seqStats, err := SequentialEngine{}.Run(topo, factory, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats != seqStats {
		t.Errorf("stats differ: pool=%+v seq=%+v", stats, seqStats)
	}
}
