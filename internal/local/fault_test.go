// Fault-injection determinism suite: a fault plan is part of a run's
// specification, so a faulty run must be exactly as reproducible as a clean
// one — identical Stats (including the fault counters) and bit-identical
// outputs across every engine, every forced plane, and every worker count.
// The suite also pins that an inactive plan costs the fast paths nothing.
package local_test

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/prob"
)

// faultConfigs are the fault plans the determinism suite sweeps: each knob
// alone, and all of them together.
func faultConfigs() []struct {
	name string
	fp   local.FaultPlan
} {
	return []struct {
		name string
		fp   local.FaultPlan
	}{
		{"drop", local.FaultPlan{Seed: 11, Drop: 0.2}},
		{"drop+delay", local.FaultPlan{Seed: 11, Drop: 0.3, Delay: 3}},
		{"crash", local.FaultPlan{Seed: 7, Crash: 0.03}},
		{"drop+delay+crash", local.FaultPlan{Seed: 13, Drop: 0.15, Delay: 2, Crash: 0.02}},
	}
}

// outHash folds a run's per-node outputs into one trace hash (FNV-1a), so
// failures print a single word per engine before the per-node diff.
func outHash(out []uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range out {
		h = (h ^ x) * 1099511628211
	}
	return h
}

// TestFaultDeterminismAcrossEngines runs the cross-plane bit2 echo program
// under every fault config × engine × forced plane and demands agreement
// with the boxed oracle: same Stats (fault counters included), same
// outputs. Fault decisions key on inbox arc slots and topology node
// indices, which mean the same thing on every plane, so even the forced
// planes must agree bit-for-bit. A crashed node never writes its output
// slot, so the output vector also pins the crash schedule.
func TestFaultDeterminismAcrossEngines(t *testing.T) {
	g := graph.RandomGraph(150, 0.05, prob.NewSource(77).Rand())
	topo := local.NewTopology(g)
	n := g.N()
	for _, fc := range faultConfigs() {
		fc := fc
		t.Run(fc.name, func(t *testing.T) {
			t.Parallel()
			run := func(e local.Engine, plane local.Plane) ([]uint64, local.Stats, error) {
				out := make([]uint64, n)
				fp := fc.fp
				stats, err := e.Run(topo, bit2EchoFactory(8, out), local.Options{
					Source: prob.NewSource(3),
					Plane:  plane,
					Faults: &fp,
				})
				return out, stats, err
			}
			refOut, refStats, err := run(local.Oracle, local.PlaneAuto)
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			for _, eng := range allEngines() {
				for _, plane := range planeCases() {
					out, stats, err := run(eng.e, plane)
					if err != nil {
						t.Fatalf("%s/%v: %v", eng.name, plane, err)
					}
					if stats != refStats {
						t.Errorf("%s/%v stats %+v != oracle stats %+v", eng.name, plane, stats, refStats)
					}
					if outHash(out) != outHash(refOut) {
						for v := range out {
							if out[v] != refOut[v] {
								t.Fatalf("%s/%v disagrees with the oracle at node %d: %x vs %x",
									eng.name, plane, v, out[v], refOut[v])
							}
						}
					}
				}
			}
			// The advertised knobs must actually fire on this topology.
			if fc.fp.Drop > 0 && fc.fp.Delay == 0 && refStats.Dropped == 0 {
				t.Errorf("drop config injected no drops: %+v", refStats)
			}
			if fc.fp.Delay > 0 && refStats.Delayed == 0 {
				t.Errorf("delay config delayed no messages: %+v", refStats)
			}
			if fc.fp.Crash > 0 && refStats.Crashed == 0 {
				t.Errorf("crash config crashed no nodes: %+v", refStats)
			}
		})
	}
}

// TestFaultDeterminismBoxedAccounting is the chatterbox accounting stress
// under faults: staggered terminations mean many messages target terminated
// or crashed receivers, and every engine (multi-trial batch included) must
// draw drop, redelivery and crash boundaries at exactly the same place. The
// boxed chatterbox runs on the oracle's loop under every engine, so its bit
// twin repeats the check on the word and bit planes.
func TestFaultDeterminismBoxedAccounting(t *testing.T) {
	g := graph.RandomGraph(120, 0.06, prob.NewSource(78).Rand())
	topo := local.NewTopology(g)
	n := g.N()
	for _, fc := range faultConfigs() {
		fc := fc
		t.Run(fc.name, func(t *testing.T) {
			t.Parallel()
			for _, p := range twins(chatterFactory, bitChatterFactory) {
				mkOpts := func() local.Options {
					fp := fc.fp
					src := prob.NewSource(9)
					return local.Options{Source: src, IDs: local.PermutationIDs(n, src.Fork(1)), Faults: &fp, Plane: p.plane}
				}
				refOut, refStats := crossEngineCheck(t, topo, p, 7, mkOpts)
				// A multi-trial batch mixing faulty and clean trials must
				// fault each trial independently: the faulty trial matches
				// the faulty reference, the clean trial matches a clean
				// oracle run.
				cleanRef := make([]uint64, n)
				cleanOpts := mkOpts()
				cleanOpts.Faults = nil
				cleanStats, err := local.Oracle.Run(topo, p.mk(7, cleanRef), cleanOpts)
				if err != nil {
					t.Fatal(err)
				}
				faultyOut := make([]uint64, n)
				cleanOut := make([]uint64, n)
				co := mkOpts()
				co.Faults = nil
				stats, errs := local.BatchRun(topo, []local.Trial{
					{Factory: p.mk(7, faultyOut), Opts: mkOpts()},
					{Factory: p.mk(7, cleanOut), Opts: co},
				}, local.BatchOptions{Workers: 3})
				for s, err := range errs {
					if err != nil {
						t.Fatalf("%s: batch trial %d: %v", p.name, s, err)
					}
				}
				if stats[0] != refStats {
					t.Errorf("%s: batch faulty trial stats %+v != %+v", p.name, stats[0], refStats)
				}
				if stats[1] != cleanStats {
					t.Errorf("%s: batch clean trial stats %+v != %+v", p.name, stats[1], cleanStats)
				}
				if outHash(faultyOut) != outHash(refOut) || outHash(cleanOut) != outHash(cleanRef) {
					t.Errorf("%s: batch outputs diverge from their standalone references", p.name)
				}
			}
		})
	}
}

// TestForceFaults pins forcing a fault plan through a faults-only Overlay,
// the route the CLIs use: it is equivalent to setting Options.Faults, and
// an inactive plan returns the engine unchanged.
func TestForceFaults(t *testing.T) {
	g := graph.Cycle(40)
	topo := local.NewTopology(g)
	n := g.N()
	seq := local.Engine(local.SequentialEngine{})
	fp := local.FaultPlan{Seed: 21, Drop: 0.25}
	out1 := make([]uint64, n)
	s1, err := local.Overlay{Faults: fp}.On(seq).Run(topo, chatterFactory(5, out1), local.Options{Source: prob.NewSource(2)})
	if err != nil {
		t.Fatal(err)
	}
	out2 := make([]uint64, n)
	s2, err := seq.Run(topo, chatterFactory(5, out2), local.Options{Source: prob.NewSource(2), Faults: &fp})
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 || outHash(out1) != outHash(out2) {
		t.Errorf("overlay run differs from Options.Faults run: %+v vs %+v", s1, s2)
	}
	if s1.Dropped == 0 {
		t.Errorf("overlaid run dropped nothing: %+v", s1)
	}
	if e := (local.Overlay{Faults: local.FaultPlan{Seed: 9}}).On(seq); e != seq {
		t.Errorf("inactive plan should return the engine unchanged, got %T", e)
	}
}

// TestFaultPlanValidation pins that malformed plans are rejected up front on
// both the active and inactive paths.
func TestFaultPlanValidation(t *testing.T) {
	g := graph.Cycle(8)
	topo := local.NewTopology(g)
	bad := []local.FaultPlan{
		{Drop: -0.1},
		{Drop: 1.5},
		{Crash: 2},
		{Crash: -1},
		{Drop: 0.5, Delay: -1},
	}
	for _, fp := range bad {
		fp := fp
		if _, err := (local.SequentialEngine{}).Run(topo, chatterFactory(3, make([]uint64, g.N())), local.Options{Source: prob.NewSource(1), Faults: &fp}); err == nil {
			t.Errorf("plan %+v was not rejected", fp)
		}
	}
}

// TestFaultsOffZeroAllocs pins that carrying an inactive fault plan (or none)
// leaves the word and bit fast paths at zero allocations per steady-state
// round: the boundary pass must compile down to one nil check when nothing
// is injected.
func TestFaultsOffZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race detector")
	}
	g := graph.RandomGraph(300, 0.03, prob.NewSource(55).Rand())
	topo := local.NewTopology(g)
	n := g.N()
	const lo, hi = 5, 105
	const slack = 16
	inactive := &local.FaultPlan{Seed: 5}
	paths := []struct {
		name string
		run  func(rounds int)
	}{
		{"seq-word", func(rounds int) {
			out := make([]uint64, n)
			if _, err := (local.SequentialEngine{}).Run(topo, wordEchoFactory(rounds, out), local.Options{Source: prob.NewSource(3), Faults: inactive}); err != nil {
				t.Fatal(err)
			}
		}},
		{"seq-bit", func(rounds int) {
			out := make([]uint64, n)
			if _, err := (local.SequentialEngine{}).Run(topo, bitEchoFactory(rounds, out), local.Options{Source: prob.NewSource(3), Faults: inactive}); err != nil {
				t.Fatal(err)
			}
		}},
		{"pool-word", func(rounds int) {
			out := make([]uint64, n)
			if _, err := (local.WorkerPoolEngine{Workers: 3}).Run(topo, wordEchoFactory(rounds, out), local.Options{Source: prob.NewSource(3), Faults: inactive}); err != nil {
				t.Fatal(err)
			}
		}},
		{"batch-bit", func(rounds int) {
			out := make([]uint64, n)
			trial := local.Trial{Factory: bitEchoFactory(rounds, out), Opts: local.Options{Source: prob.NewSource(3), Faults: inactive}}
			if _, errs := local.BatchRun(topo, []local.Trial{trial}, local.BatchOptions{Workers: 3}); errs[0] != nil {
				t.Fatal(errs[0])
			}
		}},
	}
	for _, pt := range paths {
		pt := pt
		t.Run(pt.name, func(t *testing.T) {
			extra := marginalAllocs(t, lo, hi, pt.run)
			if extra > slack {
				t.Errorf("%s: %d extra allocations for %d extra rounds with faults off, want ≈ 0 (≤ %d)",
					pt.name, extra, hi-lo, slack)
			}
		})
	}
}

// TestFaultSeedIndependence pins that the fault seed is a real axis: two
// fault seeds give different traces, and the same fault seed replayed gives
// the same trace, independent of the algorithmic seed.
func TestFaultSeedIndependence(t *testing.T) {
	g := graph.RandomGraph(100, 0.08, prob.NewSource(79).Rand())
	topo := local.NewTopology(g)
	n := g.N()
	run := func(algoSeed, faultSeed uint64) (local.Stats, uint64) {
		out := make([]uint64, n)
		fp := local.FaultPlan{Seed: faultSeed, Drop: 0.3, Delay: 2, Crash: 0.02}
		stats, err := (local.SequentialEngine{}).Run(topo, chatterFactory(6, out), local.Options{Source: prob.NewSource(algoSeed), Faults: &fp})
		if err != nil {
			t.Fatal(err)
		}
		return stats, outHash(out)
	}
	s1, h1 := run(1, 100)
	s2, h2 := run(1, 100)
	if s1 != s2 || h1 != h2 {
		t.Fatalf("same (algo, fault) seeds diverged: %+v/%x vs %+v/%x", s1, h1, s2, h2)
	}
	_, h3 := run(1, 101)
	if h3 == h1 {
		t.Errorf("different fault seeds produced identical traces (hash %x)", h1)
	}
}

// TestFaultGoldens pins the fault semantics absolutely: the cross-engine
// suites above compare the planes only with each other, and every plane
// runs the same fault pass, so a bug in that pass would move them all
// together. The literals are the oracle's Stats and output hash of the
// bit2 echo program under each faultConfigs plan. Two further plans are
// checked by hand on every engine × forced plane: dropping every message
// delivers none, and crashing every node after round 1 ends the run there
// with every node crashed and every pending message dropped.
func TestFaultGoldens(t *testing.T) {
	g := graph.RandomGraph(150, 0.05, prob.NewSource(77).Rand())
	topo := local.NewTopology(g)
	n := g.N()
	run := func(e local.Engine, plane local.Plane, fp local.FaultPlan) (local.Stats, uint64) {
		t.Helper()
		out := make([]uint64, n)
		stats, err := e.Run(topo, bit2EchoFactory(8, out), local.Options{
			Source: prob.NewSource(3),
			Plane:  plane,
			Faults: &fp,
		})
		if err != nil {
			t.Fatalf("%+v: %v", fp, err)
		}
		return stats, outHash(out)
	}
	golden := map[string]struct {
		stats local.Stats
		hash  uint64
	}{
		"drop":             {local.Stats{Rounds: 9, Messages: 3725, Dropped: 884}, 0x427402ebd8f7437c},
		"drop+delay":       {local.Stats{Rounds: 9, Messages: 3935, Dropped: 520, Delayed: 1311}, 0x27435143ac5b939e},
		"crash":            {local.Stats{Rounds: 9, Messages: 3206, Dropped: 175, Crashed: 49}, 0x8ae3880779659fcc},
		"drop+delay+crash": {local.Stats{Rounds: 9, Messages: 3502, Dropped: 371, Delayed: 628, Crashed: 26}, 0x3b5d84eb4e974146},
	}
	for _, fc := range faultConfigs() {
		want, ok := golden[fc.name]
		if !ok {
			t.Fatalf("no golden for fault config %q", fc.name)
		}
		stats, h := run(local.Oracle, local.PlaneAuto, fc.fp)
		if stats != want.stats || h != want.hash {
			t.Errorf("%s: oracle stats %#v hash %#x, want %#v hash %#x", fc.name, stats, h, want.stats, want.hash)
		}
	}
	for _, eng := range allEngines() {
		for _, plane := range planeCases() {
			s, _ := run(eng.e, plane, local.FaultPlan{Seed: 5, Drop: 1})
			if s.Messages != 0 || s.Dropped == 0 || s.Delayed != 0 || s.Crashed != 0 {
				t.Errorf("%s/%v: Drop 1 gave %+v, want no delivered message and some dropped", eng.name, plane, s)
			}
			s, _ = run(eng.e, plane, local.FaultPlan{Seed: 5, Crash: 1})
			if s.Rounds != 1 || s.Crashed != n || s.Messages != 0 || s.Dropped == 0 || s.Delayed != 0 {
				t.Errorf("%s/%v: Crash 1 gave %+v, want 1 round, %d crashed, no delivered message", eng.name, plane, s, n)
			}
		}
	}
}
