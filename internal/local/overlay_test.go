package local_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/prob"
)

// optsSpy records the Options an overlaid engine hands down and reports
// the run control's verdict, so the merge rules are checked without a run.
type optsSpy struct{ got *local.Options }

func (s optsSpy) Run(_ *local.Topology, _ local.Factory, opts local.Options) (local.Stats, error) {
	*s.got = opts
	return local.Stats{}, opts.Control.Err()
}

// TestOverlay pins the one settings wrapper: a zero overlay is the
// identity, overlays merge into a single wrapper, the outer non-zero plane
// and fault plan win, every control in play (outer, inner, the caller's
// own) can end the run, and a forced plane is rejected by programs that
// cannot run on it. TestForceControl and TestForceFaults pin a single
// control or fault plan forced through an overlay.
func TestOverlay(t *testing.T) {
	t.Parallel()
	live := &local.RunControl{Ctx: context.Background()}
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	cancelled := &local.RunControl{Ctx: cctx}
	seq := local.Engine(local.SequentialEngine{})

	t.Run("zero-is-identity", func(t *testing.T) {
		for _, o := range []local.Overlay{
			{},
			{Faults: local.FaultPlan{Seed: 9}}, // inactive plan
			{Control: &local.RunControl{}},     // nil context
		} {
			if e := o.On(seq); e != seq {
				t.Errorf("%+v: zero overlay must return the engine unchanged, got %T", o, e)
			}
		}
	})

	t.Run("single-wrapper", func(t *testing.T) {
		e := local.Overlay{Control: live}.On(seq)
		e = local.Overlay{Faults: local.FaultPlan{Seed: 1, Drop: 0.5}}.On(e)
		e = local.Overlay{Plane: local.PlaneBit, Control: live}.On(e)
		if n := local.OverlayLayers(e); n != 1 {
			t.Fatalf("overlaying an overlaid engine stacked %d wrappers, want 1", n)
		}
	})

	t.Run("outer-plane-and-faults-win", func(t *testing.T) {
		var got local.Options
		innerFP := local.FaultPlan{Seed: 1, Drop: 0.1}
		outerFP := local.FaultPlan{Seed: 2, Crash: 0.2}
		inner := local.Overlay{Plane: local.PlaneWord, Faults: innerFP}.On(optsSpy{&got})
		callerFP := local.FaultPlan{Seed: 3, Drop: 0.3}
		caller := local.Options{Plane: local.PlaneBoxed, Faults: &callerFP}

		local.Overlay{Plane: local.PlaneBit, Faults: outerFP}.On(inner).Run(nil, nil, caller)
		if got.Plane != local.PlaneBit || got.Faults == nil || *got.Faults != outerFP {
			t.Errorf("outer overlay lost: plane %s, faults %+v", got.Plane, got.Faults)
		}
		local.Overlay{Control: live}.On(inner).Run(nil, nil, caller)
		if got.Plane != local.PlaneWord || got.Faults == nil || *got.Faults != innerFP {
			t.Errorf("zero outer fields must keep the inner overlay's: plane %s, faults %+v", got.Plane, got.Faults)
		}
		local.Overlay{Control: live}.On(optsSpy{&got}).Run(nil, nil, caller)
		if got.Plane != local.PlaneBoxed || got.Faults != &callerFP {
			t.Errorf("a control-only overlay must keep the caller's plane and faults: plane %s, faults %+v", got.Plane, got.Faults)
		}
	})

	t.Run("every-control-ends-the-run", func(t *testing.T) {
		g := ctlGraph(t)
		topo := local.NewTopology(g)
		n := g.N()
		cases := []struct {
			name         string
			inner, outer *local.RunControl
			caller       *local.RunControl
		}{
			{"outer-cancelled-over-live-inner", live, cancelled, nil},
			{"inner-cancelled-under-live-outer", cancelled, live, nil},
			{"caller-cancelled-under-live-overlays", live, live, cancelled},
		}
		for _, tc := range cases {
			for _, eng := range allEngines() {
				e := local.Overlay{Control: tc.outer}.On(local.Overlay{Control: tc.inner}.On(eng.e))
				opts := ctlOpts(n, local.PlaneAuto)
				opts.Control = tc.caller
				stats, err := e.Run(topo, ctlFactory(newCtlRecorder(n, ctlRounds)), opts)
				if !errors.Is(err, local.ErrCancelled) {
					t.Fatalf("%s/%s: err = %v, want ErrCancelled", tc.name, eng.name, err)
				}
				if stats.Rounds != 0 {
					t.Fatalf("%s/%s: stats.Rounds = %d, want 0", tc.name, eng.name, stats.Rounds)
				}
			}
		}
		// All live: the run completes untouched.
		e := local.Overlay{Control: live}.On(local.Overlay{Control: live}.On(seq))
		opts := ctlOpts(n, local.PlaneAuto)
		opts.Control = live
		if _, err := e.Run(topo, ctlFactory(newCtlRecorder(n, ctlRounds)), opts); err != nil {
			t.Fatalf("live controls: %v", err)
		}
	})

	t.Run("forced-plane-rejects", func(t *testing.T) {
		topo := local.NewTopology(graph.Cycle(8))
		boxedF := func(local.View) local.Node {
			return boxedOnly{n: local.BitProgram(local.BitFunc(func(int, local.BitRow, local.BitRow) bool { return true }))}
		}
		for _, plane := range []local.Plane{local.PlaneBit, local.PlaneWord} {
			for _, eng := range allEngines() {
				if _, err := (local.Overlay{Plane: plane}).On(eng.e).Run(topo, boxedF, local.Options{}); err == nil {
					t.Errorf("%s: forcing %s on a boxed-only program should fail", eng.name, plane)
				} else if !strings.Contains(err.Error(), plane.String()) {
					t.Errorf("%s: error %q does not name the plane", eng.name, err)
				}
			}
		}
		mkWordF := func() local.Factory { return wordEchoFactory(2, make([]uint64, topo.N())) }
		if _, err := (local.Overlay{Plane: local.PlaneBit}).On(seq).Run(topo, mkWordF(), local.Options{Source: prob.NewSource(1)}); err == nil {
			t.Error("forcing bit on a word-only program should fail")
		}
		if _, err := (local.Overlay{Plane: local.PlaneWord}).On(seq).Run(topo, mkWordF(), local.Options{Source: prob.NewSource(1)}); err != nil {
			t.Errorf("forcing word on a word program: %v", err)
		}
	})
}
