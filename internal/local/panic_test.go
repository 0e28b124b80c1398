// Panic isolation coverage: a node program that panics at a chosen
// (node, round) yields an engine-level *PanicError on the sequential and
// pool paths and a per-trial error in BatchRun — with the
// sibling trials' golden hashes unchanged — and a panicking factory is
// reported as a round-0 setup failure. The CI job runs this package under
// -race, so the recovery paths are exercised with the detector on.
package local_test

import (
	"errors"
	"testing"

	"repro/internal/local"
	"repro/internal/prob"
)

// bombNode runs the ctlNode trace program but panics when the node with
// creation index bombIdx executes round bombRound.
type bombNode struct {
	ctlNode
	bombIdx   int
	bombRound int
}

func bombFactory(rec *ctlRecorder, bombIdx, bombRound int) local.Factory {
	idx := 0
	return func(v local.View) local.Node {
		n := &bombNode{ctlNode: ctlNode{v: v, rec: rec, idx: idx}, bombIdx: bombIdx, bombRound: bombRound}
		idx++
		return n
	}
}

func (n *bombNode) arm(r int) {
	if n.idx == n.bombIdx && r == n.bombRound {
		panic("bomb")
	}
}

func (n *bombNode) Round(r int, recv []local.Message) ([]local.Message, bool) {
	n.arm(r)
	return n.ctlNode.Round(r, recv)
}

func (n *bombNode) RoundW(r int, recv, send []local.Word) bool {
	n.arm(r)
	return n.ctlNode.RoundW(r, recv, send)
}

func (n *bombNode) RoundB(r int, recv, send local.BitRow) bool {
	n.arm(r)
	return n.ctlNode.RoundB(r, recv, send)
}

var (
	_ local.Node     = (*bombNode)(nil)
	_ local.WordNode = (*bombNode)(nil)
	_ local.BitNode  = (*bombNode)(nil)
)

const (
	bombIdx   = 5 // creation index of the panicking node
	bombRound = 4
)

// TestPanicIsolationEngines pins the engine-level conversion: on every
// engine and plane, the run fails with a *PanicError carrying the panicking
// round (and, where the path can attribute it, the node index), the process
// survives, and the shared topology still serves a clean follow-up run.
func TestPanicIsolationEngines(t *testing.T) {
	g := ctlGraph(t)
	topo := local.NewTopology(g)
	n := g.N()

	for _, plane := range ctlPlanes {
		plane := plane
		t.Run(plane.String(), func(t *testing.T) {
			for _, eng := range ctlEngines() {
				eng := eng
				t.Run(eng.name, func(t *testing.T) {
					rec := newCtlRecorder(n, ctlRounds)
					_, err := eng.e.Run(topo, bombFactory(rec, bombIdx, bombRound), ctlOpts(n, plane))
					var pe *local.PanicError
					if !errors.As(err, &pe) {
						t.Fatalf("err = %v, want *PanicError", err)
					}
					if pe.Round != bombRound {
						t.Fatalf("panic round = %d, want %d", pe.Round, bombRound)
					}
					if pe.Value != "bomb" {
						t.Fatalf("panic value = %v, want \"bomb\"", pe.Value)
					}
					if pe.Node < 0 || pe.Node >= n {
						t.Fatalf("panic node = %d, out of range", pe.Node)
					}
					if len(pe.Stack) == 0 {
						t.Fatalf("panic error carries no stack")
					}

					// The topology is untouched: a clean run after the panic
					// reproduces the oracle's trace.
					ref := newCtlRecorder(n, ctlRounds)
					if _, err := local.Oracle.Run(topo, ctlFactory(ref), ctlOpts(n, plane)); err != nil {
						t.Fatalf("follow-up run: %v", err)
					}
					clean := newCtlRecorder(n, ctlRounds)
					if _, err := eng.e.Run(topo, ctlFactory(clean), ctlOpts(n, plane)); err != nil {
						t.Fatalf("follow-up run on %s: %v", eng.name, err)
					}
					if !equalU64(clean.row(ctlRounds), ref.row(ctlRounds)) {
						t.Fatalf("follow-up run diverges after a panicked run")
					}
				})
			}
		})
	}
}

// TestPanicNodeAttribution pins exact node attribution on the sequential
// engine: the reported Node is the topology index of the program that
// panicked.
func TestPanicNodeAttribution(t *testing.T) {
	g := ctlGraph(t)
	topo := local.NewTopology(g)
	n := g.N()
	t.Run("seq", func(t *testing.T) {
		rec := newCtlRecorder(n, ctlRounds)
		_, err := local.SequentialEngine{}.Run(topo, bombFactory(rec, bombIdx, bombRound), ctlOpts(n, local.PlaneWord))
		var pe *local.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("err = %v, want *PanicError", err)
		}
		// Factories run in topology order on this path, so creation
		// index == topology index.
		if pe.Node != bombIdx {
			t.Fatalf("panic node = %d, want %d", pe.Node, bombIdx)
		}
	})
}

// TestPanicIsolationBatch pins per-trial isolation: a panicking trial fails
// with *PanicError while its siblings complete with traces byte-identical
// to their solo runs.
func TestPanicIsolationBatch(t *testing.T) {
	g := ctlGraph(t)
	topo := local.NewTopology(g)
	n := g.N()

	seeds := []uint64{31, 32, 33}
	refs := make([]*ctlRecorder, len(seeds))
	for i, seed := range seeds {
		refs[i] = newCtlRecorder(n, ctlRounds)
		src := prob.NewSource(seed)
		opts := local.Options{Source: src, IDs: local.PermutationIDs(n, src.Fork(1)), MaxRounds: 64, Plane: local.PlaneWord}
		if _, err := local.Oracle.Run(topo, ctlFactory(refs[i]), opts); err != nil {
			t.Fatalf("solo run %d: %v", i, err)
		}
	}

	recs := make([]*ctlRecorder, len(seeds))
	trials := make([]local.Trial, len(seeds))
	for i, seed := range seeds {
		recs[i] = newCtlRecorder(n, ctlRounds)
		src := prob.NewSource(seed)
		f := ctlFactory(recs[i])
		if i == 1 {
			f = bombFactory(recs[i], bombIdx, bombRound)
		}
		trials[i] = local.Trial{
			Factory: f,
			Opts:    local.Options{Source: src, IDs: local.PermutationIDs(n, src.Fork(1)), MaxRounds: 64, Plane: local.PlaneWord},
		}
	}

	stats, errs := local.BatchRun(topo, trials, local.BatchOptions{Workers: 3})
	var pe *local.PanicError
	if !errors.As(errs[1], &pe) {
		t.Fatalf("trial 1 err = %v, want *PanicError", errs[1])
	}
	if pe.Round != bombRound {
		t.Fatalf("trial 1 panic round = %d, want %d", pe.Round, bombRound)
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
}

// TestPanicInFactory pins setup-time conversion: a factory that panics on
// node j is reported as PanicError{Node: j, Round: 0} on every engine; the
// pool rows take BatchRun's per-trial path for it.
func TestPanicInFactory(t *testing.T) {
	g := ctlGraph(t)
	topo := local.NewTopology(g)
	n := g.N()
	const failAt = 7
	mk := func(rec *ctlRecorder) local.Factory {
		inner := ctlFactory(rec)
		idx := 0
		return func(v local.View) local.Node {
			if idx == failAt {
				panic("factory bomb")
			}
			idx++
			return inner(v)
		}
	}
	for _, eng := range ctlEngines() {
		t.Run(eng.name, func(t *testing.T) {
			_, err := eng.e.Run(topo, mk(newCtlRecorder(n, ctlRounds)), ctlOpts(n, local.PlaneWord))
			var pe *local.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want *PanicError", err)
			}
			if pe.Round != 0 || pe.Node != failAt {
				t.Fatalf("panic at (node %d, round %d), want (%d, 0)", pe.Node, pe.Round, failAt)
			}
		})
	}
}
