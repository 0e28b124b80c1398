// Allocation-regression pins for the word-plane fast path: a steady-state
// round must perform zero heap allocations on every execution path
// (sequential, worker pool, batch, plus the unfused sequential run on the
// bit plane). The measurement is
// marginal — the same run at two round budgets, so one-time setup (views,
// nodes, planes, worker spawn) cancels out and only the per-round cost
// remains; this is the engine-level sibling of the CSR builder's
// TestCSRBuilderAllocs-style constant-allocation pins.
package local_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/prob"
)

// marginalAllocs reports how many heap allocations `run` performs for the
// extra rounds of the second, longer invocation: allocs(run(hi)) -
// allocs(run(lo)). GC is disabled around the measurement so collector
// bookkeeping does not pollute the counter.
func marginalAllocs(t *testing.T, lo, hi int, run func(rounds int)) int64 {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	run(lo)
	runtime.ReadMemStats(&m1)
	run(hi)
	runtime.ReadMemStats(&m2)
	return int64(m2.Mallocs-m1.Mallocs) - int64(m1.Mallocs-m0.Mallocs)
}

// TestWordPathZeroAllocsPerRound pins steady-state 0 allocs/round for a
// word program on every execution path. The slack of a few mallocs per
// hundred extra rounds absorbs runtime-internal noise (e.g. a goroutine
// stack growth) without letting a real per-round or per-node allocation —
// which would cost hundreds to hundreds of thousands of mallocs here —
// slip through.
func TestWordPathZeroAllocsPerRound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race detector")
	}
	g := graph.RandomGraph(300, 0.03, prob.NewSource(55).Rand())
	topo := local.NewTopology(g)
	n := g.N()
	const lo, hi = 5, 105
	const slack = 16 // ≤ 0.16 allocs per extra round ≈ 0
	paths := []struct {
		name string
		run  func(rounds int)
	}{
		{"seq", func(rounds int) {
			out := make([]uint64, n)
			if _, err := (local.SequentialEngine{}).Run(topo, wordEchoFactory(rounds, out), local.Options{Source: prob.NewSource(3)}); err != nil {
				t.Fatal(err)
			}
		}},
		{"pool", func(rounds int) {
			out := make([]uint64, n)
			if _, err := (local.WorkerPoolEngine{Workers: 3}).Run(topo, wordEchoFactory(rounds, out), local.Options{Source: prob.NewSource(3)}); err != nil {
				t.Fatal(err)
			}
		}},
		{"batch", func(rounds int) {
			out1 := make([]uint64, n)
			out2 := make([]uint64, n)
			_, errs := local.BatchRun(topo, []local.Trial{
				{Factory: wordEchoFactory(rounds, out1), Opts: local.Options{Source: prob.NewSource(4)}},
				{Factory: wordEchoFactory(rounds, out2), Opts: local.Options{Source: prob.NewSource(5)}},
			}, local.BatchOptions{Workers: 3})
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
		}},
	}
	for _, pt := range paths {
		pt := pt
		t.Run(pt.name, func(t *testing.T) {
			extra := marginalAllocs(t, lo, hi, pt.run)
			if extra > slack {
				t.Errorf("%s: %d extra allocations for %d extra rounds, want ≈ 0 (≤ %d)",
					pt.name, extra, hi-lo, slack)
			}
		})
	}
}

// TestBitPathZeroAllocsPerRound is TestWordPathZeroAllocsPerRound for the
// packed bit planes: a steady-state round must allocate nothing on any of
// the execution paths — the planes, the per-worker packed scratch rows, the
// cast slots and gather blocks, and the delivery table are all set up once.
// The pool-cast row and the batch's third trial run a fused caster, so
// their dense rounds pull (see castSlots) beside pushing trials. The
// seq-nofuse row runs that caster through unfused: the scratch-row
// reference schedule TestFusedCasterEquivalence checks the fused paths
// against.
func TestBitPathZeroAllocsPerRound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race detector")
	}
	g := graph.RandomGraph(300, 0.03, prob.NewSource(55).Rand())
	topo := local.NewTopology(g)
	n := g.N()
	const lo, hi = 5, 105
	const slack = 16 // ≤ 0.16 allocs per extra round ≈ 0
	paths := []struct {
		name string
		run  func(rounds int)
	}{
		{"seq", func(rounds int) {
			out := make([]uint64, n)
			if _, err := (local.SequentialEngine{}).Run(topo, bitEchoFactory(rounds, out), local.Options{Source: prob.NewSource(3)}); err != nil {
				t.Fatal(err)
			}
		}},
		{"seq-nofuse", func(rounds int) {
			out := make([]uint64, n)
			if _, err := (local.SequentialEngine{}).Run(topo, unfused(castEchoFactory(rounds, out)), local.Options{Source: prob.NewSource(3)}); err != nil {
				t.Fatal(err)
			}
		}},
		{"pool", func(rounds int) {
			out := make([]uint64, n)
			if _, err := (local.WorkerPoolEngine{Workers: 3}).Run(topo, bitEchoFactory(rounds, out), local.Options{Source: prob.NewSource(3)}); err != nil {
				t.Fatal(err)
			}
		}},
		{"pool-cast", func(rounds int) {
			out := make([]uint64, n)
			if _, err := (local.WorkerPoolEngine{Workers: 3}).Run(topo, castEchoFactory(rounds, out), local.Options{Source: prob.NewSource(3)}); err != nil {
				t.Fatal(err)
			}
		}},
		{"batch", func(rounds int) {
			out1 := make([]uint64, n)
			out2 := make([]uint64, n)
			out3 := make([]uint64, n)
			_, errs := local.BatchRun(topo, []local.Trial{
				{Factory: bitEchoFactory(rounds, out1), Opts: local.Options{Source: prob.NewSource(4)}},
				{Factory: bit2EchoFactory(rounds, out2), Opts: local.Options{Source: prob.NewSource(5)}},
				{Factory: castEchoFactory(rounds, out3), Opts: local.Options{Source: prob.NewSource(6)}},
			}, local.BatchOptions{Workers: 3})
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
		}},
	}
	for _, pt := range paths {
		pt := pt
		t.Run(pt.name, func(t *testing.T) {
			extra := marginalAllocs(t, lo, hi, pt.run)
			if extra > slack {
				t.Errorf("%s: %d extra allocations for %d extra rounds, want ≈ 0 (≤ %d)",
					pt.name, extra, hi-lo, slack)
			}
		})
	}
}

// castEchoFactory is castTail with a uniform stop round: every node runs
// the full budget, so the active weight never falls, every round is dense
// and the throughput paths deliver every round by pull (see castSlots)
// while the sequential path rides the fused CastB scatter.
func castEchoFactory(rounds int, out []uint64) local.Factory {
	idx := 0
	return func(v local.View) local.Node {
		n := &castTail{v: v, stop: rounds, out: out, idx: idx}
		idx++
		return local.BitProgram(n)
	}
}

// TestFusedZeroAllocsPerRound extends the bit-plane pin to the fused fast
// paths: a BitBroadcaster program, which every engine runs through CastB,
// must still allocate nothing per steady-state round on the sequential,
// pool and batch paths. castEchoFactory's rounds are all pull
// rounds on pool and batch; the pool-tail row runs castTail, whose dense
// pull rounds give way to a sparse tail — one gathering round, then push
// rounds with per-row clears over a shrinking active set.
func TestFusedZeroAllocsPerRound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race detector")
	}
	g := graph.RandomGraph(300, 0.03, prob.NewSource(55).Rand())
	topo := local.NewTopology(g)
	n := g.N()
	const lo, hi = 5, 105
	const slack = 16
	paths := []struct {
		name string
		run  func(rounds int)
	}{
		{"seq", func(rounds int) {
			out := make([]uint64, n)
			if _, err := (local.SequentialEngine{}).Run(topo, castEchoFactory(rounds, out), local.Options{Source: prob.NewSource(3)}); err != nil {
				t.Fatal(err)
			}
		}},
		{"pool", func(rounds int) {
			out := make([]uint64, n)
			if _, err := (local.WorkerPoolEngine{Workers: 3}).Run(topo, castEchoFactory(rounds, out), local.Options{Source: prob.NewSource(3)}); err != nil {
				t.Fatal(err)
			}
		}},
		{"pool-tail", func(rounds int) {
			out := make([]uint64, n)
			if _, err := (local.WorkerPoolEngine{Workers: 3}).Run(topo, castTailFactory(rounds, out, false, nil), local.Options{Source: prob.NewSource(3)}); err != nil {
				t.Fatal(err)
			}
		}},
		{"batch", func(rounds int) {
			out1 := make([]uint64, n)
			out2 := make([]uint64, n)
			_, errs := local.BatchRun(topo, []local.Trial{
				{Factory: castEchoFactory(rounds, out1), Opts: local.Options{Source: prob.NewSource(4)}},
				{Factory: castEchoFactory(rounds, out2), Opts: local.Options{Source: prob.NewSource(5)}},
			}, local.BatchOptions{Workers: 3})
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
		}},
	}
	for _, pt := range paths {
		pt := pt
		t.Run(pt.name, func(t *testing.T) {
			extra := marginalAllocs(t, lo, hi, pt.run)
			if extra > slack {
				t.Errorf("%s: %d extra allocations for %d extra rounds, want ≈ 0 (≤ %d)",
					pt.name, extra, hi-lo, slack)
			}
		})
	}
}

// TestBoxedPathStillAllocates documents the baseline the word plane
// removes: the same program shape on the boxed plane allocates per round
// (send slices and boxed messages), which is exactly what the word pins
// above would catch on a regression.
func TestBoxedPathStillAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race detector")
	}
	g := graph.RandomGraph(300, 0.03, prob.NewSource(55).Rand())
	topo := local.NewTopology(g)
	n := g.N()
	extra := marginalAllocs(t, 5, 105, func(rounds int) {
		out := make([]uint64, n)
		if _, err := (local.SequentialEngine{}).Run(topo, boxedEchoFactory(rounds, out), local.Options{Source: prob.NewSource(3)}); err != nil {
			t.Fatal(err)
		}
	})
	// 300 nodes × 100 extra rounds × (1 send slice + deg boxes) each.
	if extra < int64(n)*100 {
		t.Errorf("boxed path allocated only %d extra for 100 extra rounds; the baseline assumption is stale", extra)
	}
}

// TestSequentialRunAllocs pins the whole-run allocation count of a small
// SequentialEngine word run: views, nodes, planes, scratch and results,
// with no worker machinery. The one-inline-worker batch path must not pay
// for the multi-worker pool (its goroutine, channels, barrier and the
// variables they capture), which cost 8 more allocations per run when they
// were declared in the shared path (73 per run before, 65 after).
func TestSequentialRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race detector")
	}
	const ceiling = 65
	topo := local.NewTopology(graph.Cycle(20))
	out := make([]uint64, 20)
	got := testing.AllocsPerRun(50, func() {
		if _, err := (local.SequentialEngine{}).Run(topo, wordEchoFactory(3, out), local.Options{Source: prob.NewSource(3)}); err != nil {
			t.Fatal(err)
		}
	})
	if got > ceiling {
		t.Errorf("a 20-node sequential word run allocates %v times, want ≤ %d", got, ceiling)
	}
}
