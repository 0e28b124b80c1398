package local

import (
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/prob"
)

// maxFlood computes the maximum ID in the connected component by flooding;
// every node terminates after exactly `rounds` rounds.
type maxFlood struct {
	v      View
	best   int
	rounds int
	out    *[]int // out[topologyIndex] written at termination via closure
	idx    int
}

func (m *maxFlood) Round(r int, recv []Message) ([]Message, bool) {
	for _, msg := range recv {
		if msg == nil {
			continue
		}
		if id, ok := msg.(int); ok && id > m.best {
			m.best = id
		}
	}
	if r > m.rounds {
		(*m.out)[m.idx] = m.best
		return nil, true
	}
	send := make([]Message, m.v.Deg)
	for p := range send {
		send[p] = m.best
	}
	return send, false
}

func floodFactory(rounds int, out *[]int) Factory {
	idx := 0
	return func(v View) Node {
		n := &maxFlood{v: v, best: v.ID, rounds: rounds, out: out, idx: idx}
		idx++
		return n
	}
}

// runBoth runs a boxed program on the boxed oracle and its word twin on a
// 3-worker pool (a boxed program would be handed to the oracle's loop); the
// two must agree exactly.
func runBoth(t *testing.T, g *graph.Graph, mk, mkWord func(out *[]int) Factory, opts Options) (seq, pool []int, sStats, pStats Stats) {
	t.Helper()
	topo := NewTopology(g)
	seq = make([]int, g.N())
	pool = make([]int, g.N())
	var err error
	sStats, err = Oracle.Run(topo, mk(&seq), opts)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	pStats, err = WorkerPoolEngine{Workers: 3}.Run(topo, mkWord(&pool), opts)
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	return seq, pool, sStats, pStats
}

func TestFloodComputesMax(t *testing.T) {
	g := graph.PathGraph(10)
	mk := func(out *[]int) Factory { return floodFactory(10, out) }
	mkWord := func(out *[]int) Factory { return wordFloodFactory(10, out) }
	seq, pool, sStats, pStats := runBoth(t, g, mk, mkWord, Options{})
	for v := 0; v < g.N(); v++ {
		if seq[v] != 9 {
			t.Fatalf("sequential: node %d computed %d, want 9", v, seq[v])
		}
		if pool[v] != 9 {
			t.Fatalf("pool: node %d computed %d, want 9", v, pool[v])
		}
	}
	if sStats.Rounds != 11 || pStats.Rounds != 11 {
		t.Errorf("rounds: seq=%d pool=%d, want 11", sStats.Rounds, pStats.Rounds)
	}
	if sStats.Messages != pStats.Messages {
		t.Errorf("message counts differ: %d vs %d", sStats.Messages, pStats.Messages)
	}
}

func TestEnginesAgreeOnRandomizedAlgorithm(t *testing.T) {
	// Each node draws a random value, exchanges it with neighbors for 3
	// rounds, and outputs a hash of everything it saw. Both engines must
	// produce identical outputs because randomness is keyed by node ID.
	g := graph.RandomGraph(60, 0.1, prob.NewSource(7).Rand())
	mk := func(out *[]int) Factory {
		idx := 0
		return func(v View) Node {
			n := &randExchange{v: v, out: out, idx: idx}
			idx++
			return n
		}
	}
	mkWord := func(out *[]int) Factory {
		idx := 0
		return func(v View) Node {
			n := &wordRandExchange{randExchange{v: v, out: out, idx: idx}}
			idx++
			return WordProgram(n)
		}
	}
	src := prob.NewSource(99)
	ids := PermutationIDs(g.N(), src.Fork(1))
	opts := Options{Source: src, IDs: ids}
	seq, pool, _, _ := runBoth(t, g, mk, mkWord, opts)
	for v := range seq {
		if seq[v] != pool[v] {
			t.Fatalf("engines disagree at node %d: %d vs %d", v, seq[v], pool[v])
		}
	}
}

type randExchange struct {
	v   View
	acc int
	out *[]int
	idx int
}

func (n *randExchange) Round(r int, recv []Message) ([]Message, bool) {
	for _, m := range recv {
		if m != nil {
			n.acc = n.acc*31 + m.(int)
		}
	}
	if r > 3 {
		(*n.out)[n.idx] = n.acc
		return nil, true
	}
	x := int(n.v.Rand.Uint64() % 1000)
	send := make([]Message, n.v.Deg)
	for p := range send {
		send[p] = x
	}
	return send, false
}

// wordRandExchange is randExchange on the word plane.
type wordRandExchange struct{ randExchange }

func (n *wordRandExchange) RoundW(r int, recv, send []Word) bool {
	for _, w := range recv {
		if w != NilWord {
			n.acc = n.acc*31 + w.Int()
		}
	}
	if r > 3 {
		(*n.out)[n.idx] = n.acc
		return true
	}
	Broadcast(send, MakeIntWord(1, int(n.v.Rand.Uint64()%1000)))
	return false
}

// zeroRound terminates immediately without sending.
type zeroRound struct {
	out *[]int
	idx int
}

func (z *zeroRound) Round(int, []Message) ([]Message, bool) {
	(*z.out)[z.idx] = 1
	return nil, true
}

// wordZeroRound is zeroRound on the word plane.
type wordZeroRound struct{ zeroRound }

func (z *wordZeroRound) RoundW(int, []Word, []Word) bool {
	(*z.out)[z.idx] = 1
	return true
}

func TestZeroCommunicationAlgorithm(t *testing.T) {
	g := graph.Complete(5)
	mk := func(out *[]int) Factory {
		idx := 0
		return func(View) Node {
			z := &zeroRound{out: out, idx: idx}
			idx++
			return z
		}
	}
	mkWord := func(out *[]int) Factory {
		idx := 0
		return func(View) Node {
			z := &wordZeroRound{zeroRound{out: out, idx: idx}}
			idx++
			return WordProgram(z)
		}
	}
	seq, pool, sStats, pStats := runBoth(t, g, mk, mkWord, Options{})
	for v := range seq {
		if seq[v] != 1 || pool[v] != 1 {
			t.Fatal("outputs missing")
		}
	}
	if sStats.Rounds != 1 || sStats.Messages != 0 || pStats != sStats {
		t.Errorf("expected 1 round 0 messages, got seq %+v pool %+v", sStats, pStats)
	}
}

func TestViewContents(t *testing.T) {
	g := graph.PathGraph(3)
	topo := NewTopology(g)
	var got []View
	f := func(v View) Node {
		got = append(got, v)
		out := []int{0, 0, 0}
		z := &zeroRound{out: &out, idx: 0}
		return z
	}
	ids := []int{10, 20, 30}
	if _, err := (SequentialEngine{}).Run(topo, f, Options{IDs: ids, Inputs: []any{"a", "b", "c"}}); err != nil {
		t.Fatal(err)
	}
	if got[1].Deg != 2 || got[1].ID != 20 || got[1].N != 3 {
		t.Errorf("middle node view wrong: %+v", got[1])
	}
	if got[1].NbrIDs[0] != 10 || got[1].NbrIDs[1] != 30 {
		t.Errorf("neighbor IDs wrong: %v", got[1].NbrIDs)
	}
	if got[2].Input != "c" {
		t.Errorf("input wrong: %v", got[2].Input)
	}
}

func TestOptionValidation(t *testing.T) {
	g := graph.PathGraph(3)
	topo := NewTopology(g)
	f := func(View) Node { out := []int{0}; return &zeroRound{out: &out} }
	if _, err := (SequentialEngine{}).Run(topo, f, Options{IDs: []int{1, 2}}); err == nil {
		t.Error("short ID slice should error")
	}
	if _, err := (SequentialEngine{}).Run(topo, f, Options{IDs: []int{1, 1, 2}}); err == nil {
		t.Error("duplicate IDs should error")
	}
	if _, err := (SequentialEngine{}).Run(topo, f, Options{Inputs: []any{nil}}); err == nil {
		t.Error("short input slice should error")
	}
}

// nonTerminating never finishes; used to test MaxRounds.
type nonTerminating struct{ deg int }

func (n *nonTerminating) Round(int, []Message) ([]Message, bool) {
	return make([]Message, n.deg), false
}

func TestMaxRounds(t *testing.T) {
	g := graph.Cycle(4)
	topo := NewTopology(g)
	f := func(v View) Node { return &nonTerminating{deg: v.Deg} }
	if _, err := (SequentialEngine{}).Run(topo, f, Options{MaxRounds: 10}); err == nil {
		t.Error("sequential engine should abort at MaxRounds")
	}
	// A boxed program would run on the boxed loop; the word spinner
	// drives the pool's own.
	wf := func(View) Node { return WordProgram(wordSpinner{}) }
	if _, err := (WorkerPoolEngine{}).Run(topo, wf, Options{MaxRounds: 10}); err == nil {
		t.Error("pool engine should abort at MaxRounds")
	}
}

// TestMaxRoundsExactBoundary pins the exhaustion semantics for every
// engine: a program that finishes in round R must succeed with MaxRounds=R
// (the cap is inclusive) and fail with MaxRounds=R-1, reporting R-1 executed
// rounds.
func TestMaxRoundsExactBoundary(t *testing.T) {
	g := graph.Cycle(12)
	topo := NewTopology(g)
	const finish = 8 // floodFactory(finish-1, ·) terminates every node in round `finish`
	engines := []struct {
		name string
		e    Engine
	}{
		{"seq", SequentialEngine{}},
		{"pool", WorkerPoolEngine{}},
		{"pool-2", WorkerPoolEngine{Workers: 2}},
	}
	// The boxed program runs on the boxed loop under every engine; its
	// word twin drives the pool's own loop.
	for _, eng := range engines {
		for _, flood := range []func(int, *[]int) Factory{floodFactory, wordFloodFactory} {
			out := make([]int, g.N())
			stats, err := eng.e.Run(topo, flood(finish-1, &out), Options{MaxRounds: finish})
			if err != nil {
				t.Errorf("%s: MaxRounds=%d must allow a round-%d finish: %v", eng.name, finish, finish, err)
			} else if stats.Rounds != finish {
				t.Errorf("%s: ran %d rounds, want %d", eng.name, stats.Rounds, finish)
			}
			out2 := make([]int, g.N())
			stats, err = eng.e.Run(topo, flood(finish-1, &out2), Options{MaxRounds: finish - 1})
			if err == nil {
				t.Errorf("%s: MaxRounds=%d must abort a round-%d finish", eng.name, finish-1, finish)
			} else if stats.Rounds != finish-1 {
				t.Errorf("%s: aborted run executed %d rounds, want %d", eng.name, stats.Rounds, finish-1)
			}
		}
	}
}

// badSender sends the wrong number of messages.
type badSender struct{}

func (badSender) Round(int, []Message) ([]Message, bool) {
	return []Message{1, 2, 3, 4, 5}, false
}

// TestSequentialRunsInline pins that the sequential engine never starts a
// goroutine: service jobs, experiment grids and the core solvers each run
// many sequential runs at once and size that concurrency themselves. A node
// program reads the goroutine count inside every round, and on every plane
// it must not exceed the count taken just before Run. It may fall: the
// workers of an earlier test's pool can still be exiting after their pool
// returned. Not parallel, so no sibling test starts goroutines meanwhile.
func TestSequentialRunsInline(t *testing.T) {
	topo := NewTopology(graph.RandomGraph(200, 0.05, prob.NewSource(7).Rand()))
	for _, plane := range []Plane{PlaneBoxed, PlaneWord, PlaneBit} {
		var rounds, most atomic.Int64
		f := func(View) Node {
			return BitProgram(BitFunc(func(r int, recv, send BitRow) bool {
				rounds.Add(1)
				if c := int64(runtime.NumGoroutine()); c > most.Load() {
					most.Store(c)
				}
				send.Broadcast(uint64(r) & 1)
				return r >= 3
			}))
		}
		before := runtime.NumGoroutine()
		if _, err := (SequentialEngine{}).Run(topo, f, Options{Plane: plane}); err != nil {
			t.Fatalf("%s: %v", plane, err)
		}
		if rounds.Load() == 0 {
			t.Fatalf("%s: no node ran a round", plane)
		}
		if c := most.Load(); c > int64(before) {
			t.Errorf("%s: %d goroutines inside a round, %d before Run", plane, c, before)
		}
	}
}

func TestPortCountValidation(t *testing.T) {
	g := graph.Cycle(4)
	topo := NewTopology(g)
	f := func(View) Node { return badSender{} }
	if _, err := (SequentialEngine{}).Run(topo, f, Options{MaxRounds: 5}); err == nil {
		t.Error("sequential: wrong port count should error")
	}
}

func TestDeliverTableConsistency(t *testing.T) {
	g := graph.RandomGraph(40, 0.15, prob.NewSource(3).Rand())
	topo := NewTopology(g)
	for v := 0; v < topo.N(); v++ {
		for p, w := range topo.row(v) {
			arc := topo.off[v] + int32(p)
			// The delivery slot of arc (v, w) must lie inside w's row and
			// name an arc pointing back at v (the reverse port).
			slot := topo.deliver[arc]
			if slot < topo.off[w] || slot >= topo.off[w+1] {
				t.Fatalf("deliver[%d] = %d outside receiver row [%d, %d)", arc, slot, topo.off[w], topo.off[w+1])
			}
			if topo.adj[slot] != int32(v) {
				t.Fatalf("deliver table broken at v=%d p=%d", v, p)
			}
		}
	}
}

func TestPermutationIDs(t *testing.T) {
	ids := PermutationIDs(100, prob.NewSource(5))
	seen := make(map[int]bool)
	for _, id := range ids {
		if id < 0 || id >= 100 || seen[id] {
			t.Fatal("not a permutation")
		}
		seen[id] = true
	}
	// Deterministic given the seed.
	ids2 := PermutationIDs(100, prob.NewSource(5))
	for i := range ids {
		if ids[i] != ids2[i] {
			t.Fatal("permutation not reproducible")
		}
	}
}
