// Run-control coverage: cancellation bit-identity (a run cancelled at round
// k executed rounds 1..k byte-identically to an uncancelled run, across
// every execution path and all three planes), distinguished
// ErrCancelled/ErrDeadline sentinels with partial Stats, per-trial and
// batch-level control in BatchRun. The Overlay route is pinned in
// overlay_test.go.
package local_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/prob"
)

// ctlRecorder captures a run's per-round trace: hist[r-1][idx] is node
// idx's accumulated message-trace hash after it executed round r (zero if
// the node never ran that round). hook, when set, is invoked after every
// node step — the cancellation tests use it to fire a context cancel at a
// chosen (round, node), which the engines observe at the next boundary.
type ctlRecorder struct {
	rounds int
	hist   [][]uint64
	hook   func(r, idx int)
}

func newCtlRecorder(n, rounds int) *ctlRecorder {
	h := make([][]uint64, rounds)
	for i := range h {
		h[i] = make([]uint64, n)
	}
	return &ctlRecorder{rounds: rounds, hist: h}
}

// row returns hist row r (1-based round) for comparisons.
func (rec *ctlRecorder) row(r int) []uint64 { return rec.hist[r-1] }

// ctlNode is the trace program behind ctlRecorder. It implements the whole
// plane ladder (boxed, word, bit) natively, with one message semantics on
// every plane: per port, silence or a one-bit value (see ctlMsg). Each plane
// folds its received (round, port, value) triples and one random draw per
// round into the per-node hash, so a run's trace is the same under every
// forced plane and the boxed oracle is the reference for all three.
type ctlNode struct {
	v   local.View
	rec *ctlRecorder
	idx int
	acc uint64
}

func ctlFactory(rec *ctlRecorder) local.Factory {
	idx := 0
	return func(v local.View) local.Node {
		n := &ctlNode{v: v, rec: rec, idx: idx}
		idx++
		return n
	}
}

// ctlMsg is what a node with round draw x sends on port p: some ports stay
// silent, the rest carry 0 or 1, which exercises the packed plane's
// presence/value split.
func ctlMsg(x uint64, p int) (v uint64, ok bool) {
	return x >> (uint(p+1) & 63) & 1, x>>(uint(p)&63)&1 != 0
}

func (n *ctlNode) recv(r, p int, v uint64) {
	n.acc = fnvFold(fnvFold(fnvFold(n.acc, uint64(r)), uint64(p)), v)
}

// step draws the round's random value, records the node's hash and reports
// whether the node stops this round.
func (n *ctlNode) step(r int) (x uint64, done bool) {
	x = n.v.Rand.Uint64()
	n.acc = fnvFold(n.acc, x)
	n.rec.hist[r-1][n.idx] = n.acc
	if n.rec.hook != nil {
		n.rec.hook(r, n.idx)
	}
	return x, r == n.rec.rounds
}

func (n *ctlNode) Round(r int, recv []local.Message) ([]local.Message, bool) {
	for p, m := range recv {
		if m != nil {
			n.recv(r, p, m.(uint64))
		}
	}
	x, done := n.step(r)
	if done {
		return nil, true
	}
	send := make([]local.Message, n.v.Deg)
	for p := range send {
		if v, ok := ctlMsg(x, p); ok {
			send[p] = v
		}
	}
	return send, false
}

func (n *ctlNode) RoundW(r int, recv, send []local.Word) bool {
	for p, m := range recv {
		if m != local.NilWord {
			n.recv(r, p, m.Payload())
		}
	}
	x, done := n.step(r)
	if done {
		return true
	}
	for p := range send {
		if v, ok := ctlMsg(x, p); ok {
			send[p] = local.MakeWord(2, v)
		}
	}
	return false
}

func (n *ctlNode) RoundB(r int, recv, send local.BitRow) bool {
	for p := 0; p < recv.Len(); p++ {
		if v, ok := recv.Lane(p); ok {
			n.recv(r, p, v)
		}
	}
	x, done := n.step(r)
	if done {
		return true
	}
	for p := 0; p < send.Len(); p++ {
		if v, ok := ctlMsg(x, p); ok {
			send.Set(p, v)
		}
	}
	return false
}

var (
	_ local.Node     = (*ctlNode)(nil)
	_ local.WordNode = (*ctlNode)(nil)
	_ local.BitNode  = (*ctlNode)(nil)
)

const (
	ctlRounds = 7
	ctlCancel = 3 // hook fires during round 3; rounds 1..3 must stand
	ctlSeed   = 11
)

func ctlGraph(t *testing.T) *graph.Graph {
	t.Helper()
	return graph.RandomGraph(160, 0.05, prob.NewSource(9).Rand())
}

func ctlOpts(n int, plane local.Plane) local.Options {
	src := prob.NewSource(ctlSeed)
	return local.Options{
		Source:    src,
		IDs:       local.PermutationIDs(n, src.Fork(1)),
		MaxRounds: 64,
		Plane:     plane,
	}
}

// ctlEngines is the control and panic suites' engine table: the pool at
// three workers and at one, whose units run inline.
func ctlEngines() []struct {
	name string
	e    local.Engine
} {
	return []struct {
		name string
		e    local.Engine
	}{
		{"seq", local.SequentialEngine{}},
		{"pool", local.WorkerPoolEngine{Workers: 3}},
		{"pool-1", local.WorkerPoolEngine{Workers: 1}},
	}
}

var ctlPlanes = []local.Plane{local.PlaneBoxed, local.PlaneWord, local.PlaneBit}

// TestCancellationBitIdentity pins the acceptance criterion: a run whose
// control fires during round k returns ErrCancelled with Stats covering
// exactly rounds 1..k, those rounds' per-node trace hashes are byte-
// identical to an uncancelled run's prefix, and no later round executed —
// across every engine and every plane, over one shared Topology (which a
// cancelled run must leave untouched for the runs after it).
func TestCancellationBitIdentity(t *testing.T) {
	g := ctlGraph(t)
	topo := local.NewTopology(g)
	n := g.N()

	for _, plane := range ctlPlanes {
		plane := plane
		t.Run(plane.String(), func(t *testing.T) {
			// Reference: uncancelled oracle run.
			ref := newCtlRecorder(n, ctlRounds)
			refStats, err := local.Oracle.Run(topo, ctlFactory(ref), ctlOpts(n, plane))
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			if refStats.Rounds != ctlRounds {
				t.Fatalf("reference run took %d rounds, want %d", refStats.Rounds, ctlRounds)
			}

			for _, eng := range ctlEngines() {
				eng := eng
				t.Run(eng.name, func(t *testing.T) {
					// Uncancelled run on this engine: full bit-identity.
					full := newCtlRecorder(n, ctlRounds)
					opts := ctlOpts(n, plane)
					if _, err := eng.e.Run(topo, ctlFactory(full), opts); err != nil {
						t.Fatalf("uncancelled run: %v", err)
					}
					for r := 1; r <= ctlRounds; r++ {
						if !equalU64(full.row(r), ref.row(r)) {
							t.Fatalf("uncancelled round %d diverges from the oracle", r)
						}
					}

					// Cancelled run: node 0's step in round ctlCancel fires
					// the cancel; the engine observes it at the next round
					// boundary.
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					rec := newCtlRecorder(n, ctlRounds)
					rec.hook = func(r, idx int) {
						if r == ctlCancel && idx == 0 {
							cancel()
						}
					}
					opts = ctlOpts(n, plane)
					opts.Control = &local.RunControl{Ctx: ctx}
					stats, err := eng.e.Run(topo, ctlFactory(rec), opts)
					if !errors.Is(err, local.ErrCancelled) {
						t.Fatalf("cancelled run: err = %v, want ErrCancelled", err)
					}
					if stats.Rounds != ctlCancel {
						t.Fatalf("cancelled run reports %d rounds, want %d", stats.Rounds, ctlCancel)
					}
					for r := 1; r <= ctlCancel; r++ {
						if !equalU64(rec.row(r), ref.row(r)) {
							t.Fatalf("cancelled round %d diverges from uncancelled prefix", r)
						}
					}
					for r := ctlCancel + 1; r <= ctlRounds; r++ {
						for idx, h := range rec.row(r) {
							if h != 0 {
								t.Fatalf("round %d node %d executed after cancellation", r, idx)
							}
						}
					}
				})
			}
		})
	}
}

// TestDeadlineControl pins the deadline twin: a control context whose
// deadline already passed stops the run before round 1 with ErrDeadline and
// zero-round Stats, on every engine.
func TestDeadlineControl(t *testing.T) {
	g := ctlGraph(t)
	topo := local.NewTopology(g)
	n := g.N()
	for _, eng := range ctlEngines() {
		t.Run(eng.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), -1)
			defer cancel()
			rec := newCtlRecorder(n, ctlRounds)
			opts := ctlOpts(n, local.PlaneWord)
			opts.Control = &local.RunControl{Ctx: ctx}
			stats, err := eng.e.Run(topo, ctlFactory(rec), opts)
			if !errors.Is(err, local.ErrDeadline) {
				t.Fatalf("err = %v, want ErrDeadline", err)
			}
			if errors.Is(err, local.ErrCancelled) {
				t.Fatalf("deadline expiry must not alias ErrCancelled (err = %v)", err)
			}
			if stats.Rounds != 0 {
				t.Fatalf("stats.Rounds = %d, want 0", stats.Rounds)
			}
		})
	}
}

// TestCancelBeatsMaxRounds pins the order of the two round-boundary exits:
// when the control fires in the last round MaxRounds allows, the next
// boundary reports the cancellation, not the exhausted cap, on every
// engine, plane and the oracle alike.
func TestCancelBeatsMaxRounds(t *testing.T) {
	g := ctlGraph(t)
	topo := local.NewTopology(g)
	n := g.N()
	engines := append(ctlEngines(), struct {
		name string
		e    local.Engine
	}{"oracle", local.Oracle})
	for _, plane := range ctlPlanes {
		for _, eng := range engines {
			ctx, cancel := context.WithCancel(context.Background())
			rec := newCtlRecorder(n, ctlRounds)
			rec.hook = func(r, idx int) {
				if r == ctlCancel && idx == 0 {
					cancel()
				}
			}
			opts := ctlOpts(n, plane)
			opts.MaxRounds = ctlCancel
			opts.Control = &local.RunControl{Ctx: ctx}
			stats, err := eng.e.Run(topo, ctlFactory(rec), opts)
			cancel()
			if !errors.Is(err, local.ErrCancelled) || stats.Rounds != ctlCancel {
				t.Errorf("%s/%s: err %v after %d rounds, want ErrCancelled after %d", plane, eng.name, err, stats.Rounds, ctlCancel)
			}
		}
	}
}

// TestBatchPerTrialControl pins trial-level isolation in BatchRun: one
// trial's control firing cancels that trial alone, and the sibling trials'
// full traces are byte-identical to their solo oracle runs.
func TestBatchPerTrialControl(t *testing.T) {
	g := ctlGraph(t)
	topo := local.NewTopology(g)
	n := g.N()

	// Solo references, one per trial seed.
	seeds := []uint64{11, 12, 13}
	refs := make([]*ctlRecorder, len(seeds))
	for i, seed := range seeds {
		refs[i] = newCtlRecorder(n, ctlRounds)
		src := prob.NewSource(seed)
		opts := local.Options{Source: src, IDs: local.PermutationIDs(n, src.Fork(1)), MaxRounds: 64, Plane: local.PlaneWord}
		if _, err := local.Oracle.Run(topo, ctlFactory(refs[i]), opts); err != nil {
			t.Fatalf("solo run %d: %v", i, err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	recs := make([]*ctlRecorder, len(seeds))
	trials := make([]local.Trial, len(seeds))
	for i, seed := range seeds {
		recs[i] = newCtlRecorder(n, ctlRounds)
		src := prob.NewSource(seed)
		trials[i] = local.Trial{
			Factory: ctlFactory(recs[i]),
			Opts:    local.Options{Source: src, IDs: local.PermutationIDs(n, src.Fork(1)), MaxRounds: 64, Plane: local.PlaneWord},
		}
	}
	// Trial 1 cancels itself during round ctlCancel.
	recs[1].hook = func(r, idx int) {
		if r == ctlCancel && idx == 0 {
			cancel()
		}
	}
	trials[1].Opts.Control = &local.RunControl{Ctx: ctx}

	stats, errs := local.BatchRun(topo, trials, local.BatchOptions{Workers: 3})
	if !errors.Is(errs[1], local.ErrCancelled) {
		t.Fatalf("trial 1 err = %v, want ErrCancelled", errs[1])
	}
	if stats[1].Rounds != ctlCancel {
		t.Fatalf("trial 1 rounds = %d, want %d", stats[1].Rounds, ctlCancel)
	}
	for _, i := range []int{0, 2} {
		if errs[i] != nil {
			t.Fatalf("sibling trial %d err = %v", i, errs[i])
		}
		if stats[i].Rounds != ctlRounds {
			t.Fatalf("sibling trial %d rounds = %d, want %d", i, stats[i].Rounds, ctlRounds)
		}
		for r := 1; r <= ctlRounds; r++ {
			if !equalU64(recs[i].row(r), refs[i].row(r)) {
				t.Fatalf("sibling trial %d round %d diverges from solo run", i, r)
			}
		}
	}
	for r := 1; r <= ctlCancel; r++ {
		if !equalU64(recs[1].row(r), refs[1].row(r)) {
			t.Fatalf("cancelled trial round %d diverges from solo prefix", r)
		}
	}
}

// TestBatchLevelControl pins BatchOptions.Control: a pre-cancelled batch
// control retires every trial with ErrCancelled and zero-round Stats — one
// trial per plane, so the boxed trial (which runs on the boxed loop)
// is governed by the batch-level control too. Under a live batch control a
// pre-cancelled per-trial control still retires its trial: both levels
// compose on every plane.
func TestBatchLevelControl(t *testing.T) {
	g := ctlGraph(t)
	topo := local.NewTopology(g)
	n := g.N()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	live := &local.RunControl{Ctx: context.Background()}
	for _, tc := range []struct {
		name         string
		batch, trial *local.RunControl
	}{
		{"batch-cancelled", &local.RunControl{Ctx: cancelled}, nil},
		{"trial-cancelled", live, &local.RunControl{Ctx: cancelled}},
	} {
		trials := make([]local.Trial, len(ctlPlanes))
		for i, plane := range ctlPlanes {
			src := prob.NewSource(uint64(20 + i))
			trials[i] = local.Trial{
				Factory: ctlFactory(newCtlRecorder(n, ctlRounds)),
				Opts:    local.Options{Source: src, MaxRounds: 64, Plane: plane, Control: tc.trial},
			}
		}
		stats, errs := local.BatchRun(topo, trials, local.BatchOptions{Workers: 2, Control: tc.batch})
		for i := range trials {
			if !errors.Is(errs[i], local.ErrCancelled) {
				t.Fatalf("%s: %s trial err = %v, want ErrCancelled", tc.name, ctlPlanes[i], errs[i])
			}
			if stats[i].Rounds != 0 {
				t.Fatalf("%s: %s trial rounds = %d, want 0", tc.name, ctlPlanes[i], stats[i].Rounds)
			}
		}
	}
}

// TestForceControl pins forcing a run control through a control-only
// Overlay: a control with no context is the identity, and an overlaid
// engine hands its context to every run, so a cancelled one ends the run
// before round 1.
func TestForceControl(t *testing.T) {
	base := local.SequentialEngine{}
	if e := (local.Overlay{Control: &local.RunControl{}}).On(base); e != local.Engine(base) {
		t.Fatalf("a control without a context must return the engine unchanged")
	}
	g := ctlGraph(t)
	topo := local.NewTopology(g)
	n := g.N()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := local.Overlay{Control: &local.RunControl{Ctx: ctx}}.On(base)
	stats, err := eng.Run(topo, ctlFactory(newCtlRecorder(n, ctlRounds)), ctlOpts(n, local.PlaneAuto))
	if !errors.Is(err, local.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if stats.Rounds != 0 {
		t.Fatalf("stats.Rounds = %d, want 0", stats.Rounds)
	}
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
