// Bit-plane tests: lane encoding round-trips, observational equivalence of
// the bit fast path with the word and boxed paths on every engine and the
// batch runner, the plane fallback ladder, forced-plane rejection, and the
// MaxRounds boundary on the bit path.
package local_test

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/prob"
)

func TestLaneEncoding(t *testing.T) {
	t.Parallel()
	for _, x := range []int{0, 1, -1, 2, -2} {
		if got := local.LaneInt(local.IntLane(x)); got != x {
			t.Errorf("IntLane(%d) round-trips to %d", x, got)
		}
	}
	// The splitting trits must fit 2-bit lanes.
	for _, x := range []int{-1, 0, 1} {
		if v := local.IntLane(x); v > 3 {
			t.Errorf("trit %d encodes to lane %d, does not fit 2 bits", x, v)
		}
	}
}

// bitEcho is the cross-plane equivalence program: every round it hashes
// everything it hears — presence and value separately, so "sent 0" versus
// silence matters — and sends a draw-dependent subset of single-bit
// messages. Run on the bit plane directly, on the word plane via the
// adapter, or fully boxed, it must produce identical outputs and Stats.
type bitEcho struct {
	v      local.View
	acc    uint64
	rounds int
	out    []uint64
	idx    int
}

func (n *bitEcho) RoundB(r int, recv, send local.BitRow) bool {
	for p := 0; p < recv.Len(); p++ {
		if recv.Has(p) {
			n.acc = n.acc*1099511628211 + uint64(p)<<8 ^ recv.Get(p)
		}
	}
	if r > n.rounds {
		n.out[n.idx] = n.acc
		return true
	}
	x := n.v.Rand.Uint64()
	for p := 0; p < send.Len(); p++ {
		if x>>(p%32)&1 == 1 {
			send.Set(p, x>>(p%32+32)&1)
		}
	}
	return false
}

func bitEchoFactory(rounds int, out []uint64) local.Factory {
	idx := 0
	return func(v local.View) local.Node {
		n := &bitEcho{v: v, rounds: rounds, out: out, idx: idx}
		idx++
		return local.BitProgram(n)
	}
}

// bit2Echo is bitEcho with trit-valued (2-bit) lanes, including negative
// zigzag-encoded values.
type bit2Echo struct {
	bitEcho
}

func (n *bit2Echo) Bit2() {}

func (n *bit2Echo) RoundB(r int, recv, send local.BitRow) bool {
	for p := 0; p < recv.Len(); p++ {
		if recv.Has(p) {
			n.acc = n.acc*1099511628211 + uint64(p)<<8 ^ uint64(int64(recv.Int(p)))
		}
	}
	if r > n.rounds {
		n.out[n.idx] = n.acc
		return true
	}
	x := n.v.Rand.Uint64()
	for p := 0; p < send.Len(); p++ {
		if x>>(p%32)&1 == 1 {
			send.SetInt(p, int(x>>(p%32+32)%3)-1) // a trit in {-1, 0, 1}
		}
	}
	return false
}

func bit2EchoFactory(rounds int, out []uint64) local.Factory {
	idx := 0
	return func(v local.View) local.Node {
		n := &bit2Echo{bitEcho{v: v, rounds: rounds, out: out, idx: idx}}
		idx++
		return local.BitProgram(n)
	}
}

// planeCases are the forced-plane variants a bit program must agree across.
func planeCases() []local.Plane {
	return []local.Plane{local.PlaneAuto, local.PlaneBit, local.PlaneWord, local.PlaneBoxed}
}

// TestBitEnginesMatchAllPlanes runs the bit (and bit2) echo programs under
// every engine and every plane of the fallback ladder: outputs and Stats
// must agree exactly with a boxed sequential reference, which pins that the
// packed planes are observationally identical to the word and boxed planes
// (delivery, termination, presence-vs-silence, message accounting).
func TestBitEnginesMatchAllPlanes(t *testing.T) {
	t.Parallel()
	g := graph.RandomGraph(120, 0.05, prob.NewSource(404).Rand())
	topo := local.NewTopology(g)
	n := g.N()
	mkOpts := func() local.Options {
		src := prob.NewSource(11)
		return local.Options{Source: src, IDs: local.PermutationIDs(n, src.Fork(1))}
	}
	for _, prog := range []struct {
		name string
		mk   func(rounds int, out []uint64) local.Factory
	}{
		{"bit", bitEchoFactory},
		{"bit2", bit2EchoFactory},
	} {
		refOut := make([]uint64, n)
		refStats, err := local.Oracle.Run(topo, prog.mk(5, refOut), mkOpts())
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range allEngines() {
			for _, plane := range planeCases() {
				out := make([]uint64, n)
				stats, err := local.Overlay{Plane: plane}.On(eng.e).Run(topo, prog.mk(5, out), mkOpts())
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", prog.name, eng.name, plane, err)
				}
				if stats != refStats {
					t.Errorf("%s/%s/%s: stats %+v != boxed seq stats %+v", prog.name, eng.name, plane, stats, refStats)
				}
				for v := range out {
					if out[v] != refOut[v] {
						t.Fatalf("%s/%s/%s: diverges from boxed seq at node %d: %x vs %x",
							prog.name, eng.name, plane, v, out[v], refOut[v])
					}
				}
			}
		}
	}
}

// boxedOnly hides every fast-path interface of a node, leaving bare Round —
// one such node in a run must drop the whole run to the boxed plane.
type boxedOnly struct{ n local.Node }

func (b boxedOnly) Round(r int, recv []local.Message) ([]local.Message, bool) {
	return b.n.Round(r, recv)
}

// wordOnly hides the bit path but keeps the word path.
type wordOnly struct{ n local.Node }

func (w wordOnly) Round(r int, recv []local.Message) ([]local.Message, bool) {
	return w.n.Round(r, recv)
}

func (w wordOnly) RoundW(r int, recv, send []local.Word) bool {
	return w.n.(local.WordNode).RoundW(r, recv, send)
}

// TestBitMixedProgramFallsBack pins the fallback ladder: hiding the bit
// interface of one node drops the run to the word plane, hiding everything
// drops it to the boxed plane, and in both cases the run stays bit-identical
// on every engine to the boxed oracle's run of the pure bit program.
func TestBitMixedProgramFallsBack(t *testing.T) {
	t.Parallel()
	g := graph.Cycle(40)
	topo := local.NewTopology(g)
	n := g.N()
	mk := func(wrap func(local.Node) local.Node) (local.Factory, []uint64) {
		out := make([]uint64, n)
		inner := bitEchoFactory(5, out)
		idx := 0
		return func(v local.View) local.Node {
			node := inner(v)
			if idx == n/2 && wrap != nil {
				node = wrap(node)
			}
			idx++
			return node
		}, out
	}
	mkOpts := func() local.Options {
		src := prob.NewSource(12)
		return local.Options{Source: src, IDs: local.PermutationIDs(n, src.Fork(1))}
	}
	pureF, pureOut := mk(nil)
	pureStats, err := local.Oracle.Run(topo, pureF, mkOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, mix := range []struct {
		name string
		wrap func(local.Node) local.Node
	}{
		{"to-word", func(n local.Node) local.Node { return wordOnly{n: n} }},
		{"to-boxed", func(n local.Node) local.Node { return boxedOnly{n: n} }},
	} {
		for _, eng := range allEngines() {
			mixedF, mixedOut := mk(mix.wrap)
			stats, err := eng.e.Run(topo, mixedF, mkOpts())
			if err != nil {
				t.Fatalf("%s/%s: %v", mix.name, eng.name, err)
			}
			if stats != pureStats {
				t.Errorf("%s/%s: mixed stats %+v != oracle stats %+v", mix.name, eng.name, stats, pureStats)
			}
			for v := range mixedOut {
				if mixedOut[v] != pureOut[v] {
					t.Fatalf("%s/%s: mixed run diverges at node %d", mix.name, eng.name, v)
				}
			}
		}
	}
}

// TestBatchMixedBitWordBoxedTrials runs one batch holding a bit trial, a
// word trial and a boxed trial: each must match its standalone oracle run
// exactly (the three plane pairs coexist without interference), which is
// the batch-runner fallback contract.
func TestBatchMixedBitWordBoxedTrials(t *testing.T) {
	t.Parallel()
	g := graph.RandomGraph(90, 0.06, prob.NewSource(42).Rand())
	topo := local.NewTopology(g)
	n := g.N()
	opts := func(seed uint64) local.Options { return local.Options{Source: prob.NewSource(seed)} }

	bOut := make([]uint64, n)
	wOut := make([]uint64, n)
	xOut := make([]uint64, n)
	stats, errs := local.BatchRun(topo, []local.Trial{
		{Factory: bit2EchoFactory(4, bOut), Opts: opts(1)},
		{Factory: wordEchoFactory(4, wOut), Opts: opts(2)},
		{Factory: boxedEchoFactory(4, xOut), Opts: opts(3)},
	}, local.BatchOptions{})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
	}
	for i, ref := range []struct {
		f   func(int, []uint64) local.Factory
		out []uint64
	}{
		{bit2EchoFactory, bOut},
		{wordEchoFactory, wOut},
		{boxedEchoFactory, xOut},
	} {
		want := make([]uint64, n)
		wantStats, err := local.Oracle.Run(topo, ref.f(4, want), opts(uint64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		if stats[i] != wantStats {
			t.Errorf("trial %d stats %+v, want %+v", i, stats[i], wantStats)
		}
		for v := 0; v < n; v++ {
			if ref.out[v] != want[v] {
				t.Fatalf("trial %d diverges at node %d", i, v)
			}
		}
	}
}

// TestForcePlaneRejects pins the loud-rejection contract: forcing a plane
// through Options.Plane that the program cannot take errors on every engine
// and in a batch trial instead of silently falling back, and ParsePlane
// rejects unknown names. TestOverlay pins the same through Overlay.
func TestForcePlaneRejects(t *testing.T) {
	t.Parallel()
	if _, err := local.ParsePlane("simd"); err == nil {
		t.Error("ParsePlane should reject unknown names")
	}
	for _, name := range []string{"auto", "boxed", "word", "bit"} {
		p, err := local.ParsePlane(name)
		if err != nil {
			t.Fatalf("ParsePlane(%q): %v", name, err)
		}
		if p.String() != name {
			t.Errorf("ParsePlane(%q).String() = %q", name, p)
		}
	}
	g := graph.Cycle(8)
	topo := local.NewTopology(g)
	boxedF := func(local.View) local.Node {
		return boxedOnly{n: local.BitProgram(local.BitFunc(func(int, local.BitRow, local.BitRow) bool { return true }))}
	}
	for _, plane := range []local.Plane{local.PlaneBit, local.PlaneWord} {
		for _, eng := range allEngines() {
			if _, err := eng.e.Run(topo, boxedF, local.Options{Plane: plane}); err == nil {
				t.Errorf("%s: forcing %s on a boxed-only program should fail", eng.name, plane)
			} else if !strings.Contains(err.Error(), plane.String()) {
				t.Errorf("%s: error %q does not name the plane", eng.name, err)
			}
		}
		_, errs := local.BatchRun(topo, []local.Trial{{Factory: boxedF, Opts: local.Options{Plane: plane}}}, local.BatchOptions{})
		if errs[0] == nil {
			t.Errorf("batch: forcing %s on a boxed-only program should fail the trial", plane)
		}
	}
	// A bit program accepts every rung of the ladder (covered in depth by
	// TestBitEnginesMatchAllPlanes); a word program must reject only bit.
	mkWordF := func() local.Factory { return wordEchoFactory(2, make([]uint64, topo.N())) }
	if _, err := (local.SequentialEngine{}).Run(topo, mkWordF(), local.Options{Source: prob.NewSource(1), Plane: local.PlaneBit}); err == nil {
		t.Error("forcing bit on a word-only program should fail")
	}
	if _, err := (local.SequentialEngine{}).Run(topo, mkWordF(), local.Options{Source: prob.NewSource(1), Plane: local.PlaneWord}); err != nil {
		t.Errorf("forcing word on a word program: %v", err)
	}
}

// bitNonTerminating never finishes; exercises MaxRounds on the bit path.
type bitNonTerminating struct{}

func (bitNonTerminating) RoundB(r int, recv, send local.BitRow) bool {
	send.Broadcast(1)
	return false
}

// TestBitMaxRounds pins the MaxRounds abort on the bit path of every engine
// and of the batch runner.
func TestBitMaxRounds(t *testing.T) {
	t.Parallel()
	g := graph.Cycle(8)
	topo := local.NewTopology(g)
	f := func(local.View) local.Node { return local.BitProgram(bitNonTerminating{}) }
	for _, eng := range allEngines() {
		stats, err := eng.e.Run(topo, f, local.Options{MaxRounds: 6})
		if err == nil {
			t.Errorf("%s: bit path should abort at MaxRounds", eng.name)
		} else if stats.Rounds != 6 {
			t.Errorf("%s: aborted run executed %d rounds, want 6", eng.name, stats.Rounds)
		}
	}
}

// TestBitProgramAdapterRoundTrip drives the BitProgram adapter's boxed
// Round directly (as a third-party boxed engine would): silent ports decode
// to absent lanes, a present 0 stays distinguishable from silence, sends
// are boxed non-zero Words, and an all-silent round returns a nil slice.
func TestBitProgramAdapterRoundTrip(t *testing.T) {
	t.Parallel()
	echo := local.Bit2Func(func(r int, recv, send local.Bit2Row) bool {
		for p := 0; p < recv.Len(); p++ {
			if recv.Has(p) {
				send.Set(p, recv.Get(p))
			}
		}
		return r >= 2
	})
	node := local.BitProgram(echo)
	in0 := local.MakeWord(1, 0) // a present "0" message
	in2 := local.MakeWord(1, 2)
	send, done := node.Round(1, []local.Message{nil, in2, in0})
	if done {
		t.Fatal("round 1 must not terminate")
	}
	if send == nil || send[0] != nil {
		t.Fatalf("silent port must stay nil, got %v", send)
	}
	if w, ok := send[1].(local.Word); !ok || w.Payload() != 2 || w == local.NilWord {
		t.Fatalf("port 1 should echo lane 2 as a non-nil word, got %v", send[1])
	}
	if w, ok := send[2].(local.Word); !ok || w.Payload() != 0 || w == local.NilWord {
		t.Fatalf("port 2 should echo the present 0 as a non-NilWord word, got %v", send[2])
	}
	send, done = node.Round(2, []local.Message{nil, nil, nil})
	if !done {
		t.Fatal("round 2 must terminate")
	}
	if send != nil {
		t.Fatalf("all-silent round must send nothing, got %v", send)
	}
}
