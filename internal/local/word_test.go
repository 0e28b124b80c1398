// Word-plane tests: encoding round-trips, observational equivalence of the
// word fast path with the boxed path on every engine and the batch runner,
// the mixed-program fallback, and the MaxRounds boundary on the word path.
package local_test

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/prob"
)

func TestWordEncoding(t *testing.T) {
	t.Parallel()
	if local.NilWord != 0 {
		t.Fatalf("NilWord must be the zero word, got %#x", uint64(local.NilWord))
	}
	for _, tc := range []struct {
		tag     uint8
		payload uint64
	}{
		{1, 0}, {1, 1}, {7, 0}, {3, local.WordPayloadMask}, {2, 12345678901234567},
	} {
		w := local.MakeWord(tc.tag, tc.payload)
		if w == local.NilWord {
			t.Errorf("MakeWord(%d, %d) collides with NilWord", tc.tag, tc.payload)
		}
		if w.Tag() != tc.tag || w.Payload() != tc.payload&local.WordPayloadMask {
			t.Errorf("MakeWord(%d, %#x) round-trips to (%d, %#x)", tc.tag, tc.payload, w.Tag(), w.Payload())
		}
	}
	for _, x := range []int{0, 1, -1, 2, -2, 1 << 40, -(1 << 40), 123456789, -987654321} {
		w := local.MakeIntWord(5, x)
		if w.Tag() != 5 || w.Int() != x {
			t.Errorf("MakeIntWord(5, %d) round-trips to (%d, %d)", x, w.Tag(), w.Int())
		}
	}
}

// wordEcho and boxedEcho are the same logical program — accumulate a hash of
// everything heard, broadcast a per-round value, terminate after `rounds` —
// implemented on the word plane and the boxed plane. Every engine must
// produce identical outputs and Stats for the two.
type wordEcho struct {
	v      local.View
	acc    uint64
	rounds int
	out    []uint64
	idx    int
}

func (n *wordEcho) RoundW(r int, recv, send []local.Word) bool {
	for p, m := range recv {
		if m != local.NilWord {
			n.acc = n.acc*1099511628211 + uint64(p) ^ m.Payload()
		}
	}
	if r > n.rounds {
		n.out[n.idx] = n.acc
		return true
	}
	x := n.v.Rand.Uint64() & local.WordPayloadMask
	for p := range send {
		send[p] = local.MakeWord(1, x^uint64(p))
	}
	return false
}

type boxedEcho struct {
	v      local.View
	acc    uint64
	rounds int
	out    []uint64
	idx    int
}

func (n *boxedEcho) Round(r int, recv []local.Message) ([]local.Message, bool) {
	for p, m := range recv {
		if m != nil {
			n.acc = n.acc*1099511628211 + uint64(p) ^ m.(local.Word).Payload()
		}
	}
	if r > n.rounds {
		n.out[n.idx] = n.acc
		return nil, true
	}
	x := n.v.Rand.Uint64() & local.WordPayloadMask
	send := make([]local.Message, n.v.Deg)
	for p := range send {
		send[p] = local.MakeWord(1, x^uint64(p))
	}
	return send, false
}

func wordEchoFactory(rounds int, out []uint64) local.Factory {
	idx := 0
	return func(v local.View) local.Node {
		n := &wordEcho{v: v, rounds: rounds, out: out, idx: idx}
		idx++
		return local.WordProgram(n)
	}
}

func boxedEchoFactory(rounds int, out []uint64) local.Factory {
	idx := 0
	return func(v local.View) local.Node {
		n := &boxedEcho{v: v, rounds: rounds, out: out, idx: idx}
		idx++
		return n
	}
}

// TestWordEnginesMatchBoxed runs the word and boxed implementations of the
// same program under every engine and the batch runner: outputs and Stats
// must agree exactly, which pins that the word plane is observationally
// identical to the boxed plane (delivery, termination, message accounting).
func TestWordEnginesMatchBoxed(t *testing.T) {
	t.Parallel()
	g := graph.RandomGraph(120, 0.05, prob.NewSource(303).Rand())
	topo := local.NewTopology(g)
	n := g.N()
	mkOpts := func() local.Options {
		src := prob.NewSource(8)
		return local.Options{Source: src, IDs: local.PermutationIDs(n, src.Fork(1))}
	}
	refOut := make([]uint64, n)
	refStats, err := local.Oracle.Run(topo, boxedEchoFactory(5, refOut), mkOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range allEngines() {
		out := make([]uint64, n)
		stats, err := eng.e.Run(topo, wordEchoFactory(5, out), mkOpts())
		if err != nil {
			t.Fatalf("%s: %v", eng.name, err)
		}
		if stats != refStats {
			t.Errorf("%s: word stats %+v != boxed stats %+v", eng.name, stats, refStats)
		}
		for v := range out {
			if out[v] != refOut[v] {
				t.Fatalf("%s: word path diverges from boxed at node %d: %x vs %x", eng.name, v, out[v], refOut[v])
			}
		}
	}
}

// TestWordMixedProgramFallsBack pins the fallback rule: when even one node
// of a run is not a WordNode, the whole run takes the boxed path, and word
// programs (via their WordProgram adapters) still exchange messages
// correctly with the boxed node: every engine's mixed run matches the boxed
// oracle's run of the pure word program.
func TestWordMixedProgramFallsBack(t *testing.T) {
	t.Parallel()
	g := graph.Cycle(40)
	topo := local.NewTopology(g)
	n := g.N()
	mk := func(mixed bool) (local.Factory, []uint64) {
		out := make([]uint64, n)
		idx := 0
		return func(v local.View) local.Node {
			i := idx
			idx++
			if mixed && i == n/2 {
				// One plain boxed node speaking the same Word protocol.
				return &boxedEcho{v: v, rounds: 5, out: out, idx: i}
			}
			return local.WordProgram(&wordEcho{v: v, rounds: 5, out: out, idx: i})
		}, out
	}
	mkOpts := func() local.Options {
		src := prob.NewSource(9)
		return local.Options{Source: src, IDs: local.PermutationIDs(n, src.Fork(1))}
	}
	pureF, pureOut := mk(false)
	pureStats, err := local.Oracle.Run(topo, pureF, mkOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range allEngines() {
		mixedF, mixedOut := mk(true)
		stats, err := eng.e.Run(topo, mixedF, mkOpts())
		if err != nil {
			t.Fatalf("%s: %v", eng.name, err)
		}
		if stats != pureStats {
			t.Errorf("%s: mixed stats %+v != oracle stats %+v", eng.name, stats, pureStats)
		}
		for v := range mixedOut {
			if mixedOut[v] != pureOut[v] {
				t.Fatalf("%s: mixed run diverges at node %d", eng.name, v)
			}
		}
	}
}

// TestBatchMixedWordAndBoxedTrials runs one batch holding both a word trial
// and a boxed trial of the same program: each must match its standalone
// oracle run exactly (the two plane pairs coexist without interference).
func TestBatchMixedWordAndBoxedTrials(t *testing.T) {
	t.Parallel()
	g := graph.RandomGraph(90, 0.06, prob.NewSource(41).Rand())
	topo := local.NewTopology(g)
	n := g.N()
	opts := func(seed uint64) local.Options { return local.Options{Source: prob.NewSource(seed)} }

	wOut := make([]uint64, n)
	bOut := make([]uint64, n)
	stats, errs := local.BatchRun(topo, []local.Trial{
		{Factory: wordEchoFactory(4, wOut), Opts: opts(1)},
		{Factory: boxedEchoFactory(4, bOut), Opts: opts(2)},
	}, local.BatchOptions{})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
	}

	wantW := make([]uint64, n)
	wantStatsW, err := local.Oracle.Run(topo, wordEchoFactory(4, wantW), opts(1))
	if err != nil {
		t.Fatal(err)
	}
	wantB := make([]uint64, n)
	wantStatsB, err := local.Oracle.Run(topo, boxedEchoFactory(4, wantB), opts(2))
	if err != nil {
		t.Fatal(err)
	}
	if stats[0] != wantStatsW || stats[1] != wantStatsB {
		t.Errorf("batch stats %+v/%+v, want %+v/%+v", stats[0], stats[1], wantStatsW, wantStatsB)
	}
	for v := 0; v < n; v++ {
		if wOut[v] != wantW[v] {
			t.Fatalf("word trial diverges at node %d", v)
		}
		if bOut[v] != wantB[v] {
			t.Fatalf("boxed trial diverges at node %d", v)
		}
	}
}

// wordNonTerminating never finishes; exercises MaxRounds on the word path.
type wordNonTerminating struct{}

func (wordNonTerminating) RoundW(r int, recv, send []local.Word) bool {
	local.Broadcast(send, local.MakeWord(1, uint64(r)))
	return false
}

// TestWordMaxRounds pins the MaxRounds abort on the word path of every
// engine and of the batch runner.
func TestWordMaxRounds(t *testing.T) {
	t.Parallel()
	g := graph.Cycle(8)
	topo := local.NewTopology(g)
	f := func(local.View) local.Node { return local.WordProgram(wordNonTerminating{}) }
	for _, eng := range allEngines() {
		stats, err := eng.e.Run(topo, f, local.Options{MaxRounds: 6})
		if err == nil {
			t.Errorf("%s: word path should abort at MaxRounds", eng.name)
		} else if stats.Rounds != 6 {
			t.Errorf("%s: aborted run executed %d rounds, want 6", eng.name, stats.Rounds)
		}
	}
}

// TestWordProgramAdapterRoundTrip drives the WordProgram adapter's boxed
// Round directly (as a third-party boxed engine would): silent ports decode
// to NilWord, sends are boxed Words, and an all-silent round returns a nil
// send slice.
func TestWordProgramAdapterRoundTrip(t *testing.T) {
	t.Parallel()
	echo := local.WordFunc(func(r int, recv, send []local.Word) bool {
		for p, m := range recv {
			if m != local.NilWord {
				send[p] = m
			}
		}
		return r >= 2
	})
	node := local.WordProgram(echo)
	in := local.MakeWord(3, 77)
	send, done := node.Round(1, []local.Message{nil, in, nil})
	if done {
		t.Fatal("round 1 must not terminate")
	}
	if send == nil || send[0] != nil || send[2] != nil {
		t.Fatalf("silent ports must stay nil, got %v", send)
	}
	if w, ok := send[1].(local.Word); !ok || w != in {
		t.Fatalf("port 1 should echo %v, got %v", in, send[1])
	}
	send, done = node.Round(2, []local.Message{nil, nil, nil})
	if !done {
		t.Fatal("round 2 must terminate")
	}
	if send != nil {
		t.Fatalf("all-silent round must send nothing, got %v", send)
	}
}
