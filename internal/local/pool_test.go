package local

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/prob"
)

// The pool tests below run word programs: a boxed run is handed to the
// boxed loop, so only word and bit programs drive the pool's workers.

// wordFlood is maxFlood on the word plane.
type wordFlood struct {
	best, rounds, idx int
	out               *[]int
}

func (m *wordFlood) RoundW(r int, recv, send []Word) bool {
	for _, w := range recv {
		if w != NilWord && w.Int() > m.best {
			m.best = w.Int()
		}
	}
	if r > m.rounds {
		(*m.out)[m.idx] = m.best
		return true
	}
	Broadcast(send, MakeIntWord(1, m.best))
	return false
}

func wordFloodFactory(rounds int, out *[]int) Factory {
	idx := 0
	return func(v View) Node {
		n := WordProgram(&wordFlood{best: v.ID, rounds: rounds, out: out, idx: idx})
		idx++
		return n
	}
}

// wordSpinner never finishes; exercises MaxRounds on the pool's word loop.
type wordSpinner struct{}

func (wordSpinner) RoundW(r int, recv, send []Word) bool {
	Broadcast(send, MakeWord(1, uint64(r)))
	return false
}

func TestWorkerPoolFloodComputesMax(t *testing.T) {
	g := graph.PathGraph(10)
	topo := NewTopology(g)
	for _, workers := range []int{0, 1, 2, 3, 7, 16, 100} {
		out := make([]int, g.N())
		stats, err := WorkerPoolEngine{Workers: workers}.Run(topo, wordFloodFactory(10, &out), Options{})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for v, got := range out {
			if got != 9 {
				t.Fatalf("workers=%d: node %d computed %d, want 9", workers, v, got)
			}
		}
		if stats.Rounds != 11 {
			t.Errorf("workers=%d: rounds=%d, want 11", workers, stats.Rounds)
		}
	}
}

// TestWorkerPoolMatchesSequentialStats checks the pool's word loop against
// the boxed oracle running the boxed flood.
func TestWorkerPoolMatchesSequentialStats(t *testing.T) {
	g := graph.RandomGraph(80, 0.1, prob.NewSource(11).Rand())
	topo := NewTopology(g)
	seqOut := make([]int, g.N())
	poolOut := make([]int, g.N())
	seqStats, err := Oracle.Run(topo, floodFactory(6, &seqOut), Options{})
	if err != nil {
		t.Fatal(err)
	}
	poolStats, err := WorkerPoolEngine{}.Run(topo, wordFloodFactory(6, &poolOut), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if seqStats != poolStats {
		t.Errorf("stats differ: seq=%+v pool=%+v", seqStats, poolStats)
	}
	for v := range seqOut {
		if seqOut[v] != poolOut[v] {
			t.Fatalf("outputs differ at node %d: %d vs %d", v, seqOut[v], poolOut[v])
		}
	}
}

// staggered terminates node v after v+1 rounds, exercising the active-set
// compaction: the set shrinks by a few nodes every round.
type staggered struct {
	out *[]int
	idx int
}

func (s *staggered) RoundW(r int, recv, send []Word) bool {
	Broadcast(send, MakeWord(1, uint64(r)))
	if r > s.idx {
		(*s.out)[s.idx] = r
		return true
	}
	return false
}

func TestWorkerPoolStaggeredTermination(t *testing.T) {
	g := graph.Cycle(50)
	topo := NewTopology(g)
	out := make([]int, g.N())
	idx := 0
	f := func(View) Node {
		s := WordProgram(&staggered{out: &out, idx: idx})
		idx++
		return s
	}
	stats, err := WorkerPoolEngine{Workers: 4}.Run(topo, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v, r := range out {
		if r != v+1 {
			t.Fatalf("node %d terminated at round %d, want %d", v, r, v+1)
		}
	}
	if stats.Rounds != 50 {
		t.Errorf("rounds=%d, want 50", stats.Rounds)
	}
}

// TestWorkerPoolGoroutineCleanupOnError pins that the worker goroutines are
// joined before Run returns on the error path: repeated failing runs must
// not accumulate goroutines.
func TestWorkerPoolGoroutineCleanupOnError(t *testing.T) {
	g := graph.Cycle(32)
	topo := NewTopology(g)
	f := func(View) Node { return WordProgram(wordSpinner{}) }
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		if _, err := (WorkerPoolEngine{Workers: 4}).Run(topo, f, Options{MaxRounds: 3}); err == nil {
			t.Fatal("want MaxRounds error")
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked across failing runs: %d before, %d after", before, after)
	}
}

func TestWorkerPoolValidation(t *testing.T) {
	g := graph.PathGraph(3)
	topo := NewTopology(g)
	f := func(View) Node { out := []int{0}; return &zeroRound{out: &out} }
	if _, err := (WorkerPoolEngine{}).Run(topo, f, Options{IDs: []int{1, 2}}); err == nil {
		t.Error("short ID slice should error")
	}
	if _, err := (WorkerPoolEngine{}).Run(topo, f, Options{IDs: []int{1, 1, 2}}); err == nil {
		t.Error("duplicate IDs should error")
	}
	if _, err := (WorkerPoolEngine{}).Run(topo, f, Options{Inputs: []any{nil}}); err == nil {
		t.Error("short input slice should error")
	}
}

func TestWorkerPoolMaxRounds(t *testing.T) {
	g := graph.Cycle(4)
	topo := NewTopology(g)
	f := func(View) Node { return WordProgram(wordSpinner{}) }
	stats, err := (WorkerPoolEngine{}).Run(topo, f, Options{MaxRounds: 10})
	if err == nil {
		t.Error("worker pool engine should abort at MaxRounds")
	} else if stats.Rounds != 10 {
		t.Errorf("aborted run executed %d rounds, want 10", stats.Rounds)
	}
}

func TestWorkerPoolPortCountValidation(t *testing.T) {
	g := graph.Cycle(4)
	topo := NewTopology(g)
	f := func(View) Node { return badSender{} }
	if _, err := (WorkerPoolEngine{}).Run(topo, f, Options{MaxRounds: 5}); err == nil {
		t.Error("wrong port count should error")
	}
}

func TestWorkerPoolEmptyTopology(t *testing.T) {
	topo := NewTopology(graph.NewGraph(0))
	f := func(View) Node { return badSender{} }
	stats, err := WorkerPoolEngine{}.Run(topo, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 0 || stats.Messages != 0 {
		t.Errorf("empty run should be free, got %+v", stats)
	}
}

// TestWorkerPoolSizedToWork pins the worker cap: a run starts no more
// workers than a round can carve units, and a run capped to one worker
// starts none — its units run inline. Node 0 reads runtime.NumGoroutine in
// round 1, after the pool started, for 64 requested workers.
func TestWorkerPoolSizedToWork(t *testing.T) {
	for _, tc := range []struct {
		name    string
		g       *graph.Graph
		workers int // goroutines the run may start
	}{
		// Weights against testMinShard (32): 4+6 is one unit, run inline;
		// 30+60 is three units.
		{"path4", graph.PathGraph(4), 0},
		{"cycle30", graph.Cycle(30), 3},
	} {
		topo := NewTopology(tc.g)
		seen := 0
		idx := 0
		f := func(View) Node {
			first := idx == 0
			idx++
			return WordProgram(WordFunc(func(int, []Word, []Word) bool {
				if first {
					seen = runtime.NumGoroutine()
				}
				return true
			}))
		}
		before := runtime.NumGoroutine()
		if _, err := (WorkerPoolEngine{Workers: 64}).Run(topo, f, Options{}); err != nil {
			t.Fatal(err)
		}
		if seen != before+tc.workers {
			t.Errorf("%s: %d goroutines inside the run, %d before; want %d workers", tc.name, seen, before, tc.workers)
		}
	}
}

// TestPoolCarvesSmallFixture pins the multi-worker coverage of the small
// test fixtures: under testMinShard, a 3-worker run of the determinism
// suite's random-sparse graph carves at least 3 units in round 1, so its
// units really run on several workers.
func TestPoolCarvesSmallFixture(t *testing.T) {
	g := graph.RandomGraph(120, 0.04, prob.NewSource(901).Rand())
	topo := NewTopology(g)
	f := func(View) Node {
		return WordProgram(WordFunc(func(int, []Word, []Word) bool { return true }))
	}
	_, errs, _, all := batchRun(topo, []Trial{{Factory: f}}, BatchOptions{Workers: 3})
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	if units := len(all[0].bounds) - 1; units < 3 {
		t.Errorf("round 1 carved %d units, want at least 3", units)
	}
}
