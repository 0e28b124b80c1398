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

// staggerStop spreads fifty stop rounds evenly over a run of the given
// length: about every other round retires part of the active set, each
// retiree group weighing more than a test compaction unit, so the pool
// compacts on its workers and the one-worker pool inline.
func staggerStop(idx, rounds int) int { return 1 + idx%50*rounds/50 }

// staggerWordEchoFactory is wordEchoFactory with node budgets spread by
// staggerStop (a wordEcho stops the round after its budget).
func staggerWordEchoFactory(rounds int, out []uint64) local.Factory {
	idx := 0
	return func(v local.View) local.Node {
		n := &wordEcho{v: v, rounds: staggerStop(idx, rounds) - 1, out: out, idx: idx}
		idx++
		return local.WordProgram(n)
	}
}

// staggerBitEchoFactory is staggerWordEchoFactory for bitEcho.
func staggerBitEchoFactory(rounds int, out []uint64) local.Factory {
	idx := 0
	return func(v local.View) local.Node {
		n := &bitEcho{v: v, rounds: staggerStop(idx, rounds) - 1, out: out, idx: idx}
		idx++
		return local.BitProgram(n)
	}
}

// staggerCastFactory is castEchoFactory with stops spread by staggerStop:
// its dense rounds pull while they retire part of the active set.
func staggerCastFactory(rounds int, out []uint64) local.Factory {
	idx := 0
	return func(v local.View) local.Node {
		n := &castTail{v: v, stop: staggerStop(idx, rounds), out: out, idx: idx}
		idx++
		return local.BitProgram(n)
	}
}

// napWord is a WordSleeper for the allocation pins: node idx broadcasts in
// the rounds ≡ idx mod 3 and sleeps in between, until its budget runs out.
// Its neighbours' words wake it early, so a round runs some sleepers and
// skips the rest.
type napWord struct{ idx, rounds int }

func (n napWord) RoundW(r int, recv, send []local.Word) bool {
	if r > n.rounds {
		return true
	}
	if r%3 == n.idx%3 {
		local.Broadcast(send, local.MakeWord(1, uint64(r)))
	}
	return false
}

func (n napWord) WakeW(r int) int {
	return min(r+1+(n.idx%3-(r+1)%3+3)%3, n.rounds+1)
}

func napWordFactory(rounds int) local.Factory {
	idx := 0
	return func(local.View) local.Node {
		n := napWord{idx: idx, rounds: rounds}
		idx++
		return local.WordProgram(n)
	}
}

// TestWordPathZeroAllocsPerRound pins steady-state 0 allocs/round for a
// word program on every execution path. The slack of a few mallocs per
// hundred extra rounds absorbs runtime-internal noise (e.g. a goroutine
// stack growth) without letting a real per-round or per-node allocation —
// which would cost hundreds to hundreds of thousands of mallocs here —
// slip through. The stagger rows retire part of the active set in about
// every other round: compaction, inline or on the pool, allocates nothing
// either. The sleep rows run a WordSleeper, whose rounds skip idle nodes
// and stamp their mail.
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
		{"seq-stagger", func(rounds int) {
			out := make([]uint64, n)
			if _, err := (local.SequentialEngine{}).Run(topo, staggerWordEchoFactory(rounds, out), local.Options{Source: prob.NewSource(3)}); err != nil {
				t.Fatal(err)
			}
		}},
		{"pool-stagger", func(rounds int) {
			out := make([]uint64, n)
			if _, err := (local.WorkerPoolEngine{Workers: 3}).Run(topo, staggerWordEchoFactory(rounds, out), local.Options{Source: prob.NewSource(3)}); err != nil {
				t.Fatal(err)
			}
		}},
		{"seq-sleep", func(rounds int) {
			if _, err := (local.SequentialEngine{}).Run(topo, napWordFactory(rounds), local.Options{Source: prob.NewSource(3)}); err != nil {
				t.Fatal(err)
			}
		}},
		{"pool-sleep", func(rounds int) {
			if _, err := (local.WorkerPoolEngine{Workers: 3}).Run(topo, napWordFactory(rounds), local.Options{Source: prob.NewSource(3)}); err != nil {
				t.Fatal(err)
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
// against. The stagger rows retire part of the active set in about every
// other round, pushing and (the cast rows) pulling, as
// TestWordPathZeroAllocsPerRound's do.
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
		{"seq-stagger", func(rounds int) {
			out := make([]uint64, n)
			if _, err := (local.SequentialEngine{}).Run(topo, staggerBitEchoFactory(rounds, out), local.Options{Source: prob.NewSource(3)}); err != nil {
				t.Fatal(err)
			}
		}},
		{"pool-stagger", func(rounds int) {
			out := make([]uint64, n)
			if _, err := (local.WorkerPoolEngine{Workers: 3}).Run(topo, staggerBitEchoFactory(rounds, out), local.Options{Source: prob.NewSource(3)}); err != nil {
				t.Fatal(err)
			}
		}},
		{"seq-stagger-cast", func(rounds int) {
			out := make([]uint64, n)
			if _, err := (local.SequentialEngine{}).Run(topo, staggerCastFactory(rounds, out), local.Options{Source: prob.NewSource(3)}); err != nil {
				t.Fatal(err)
			}
		}},
		{"pool-stagger-cast", func(rounds int) {
			out := make([]uint64, n)
			if _, err := (local.WorkerPoolEngine{Workers: 3}).Run(topo, staggerCastFactory(rounds, out), local.Options{Source: prob.NewSource(3)}); err != nil {
				t.Fatal(err)
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
// were declared in the shared path (73 per run before, 65 after). Building
// views by value from one view set instead of a []View saved one more (64).
func TestSequentialRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race detector")
	}
	const ceiling = 64
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

// castOnce is a stateless fused broadcaster: every node casts 1 in round 1
// and stops in round 2. Its zero-size value is stored in an interface
// without allocating, so a run of it allocates only the engine's own
// per-node setup.
type castOnce struct{}

func (castOnce) CastB(r int, recv local.BitRow) (uint64, bool, bool) { return 1, r == 1, r >= 2 }

func (c castOnce) RoundB(r int, recv, send local.BitRow) bool {
	v, cast, done := c.CastB(r, recv)
	if cast {
		send.Broadcast(v)
	}
	return done
}

// napOnce is castOnce for the word plane, as a WordSleeper: every node
// broadcasts in round 1, sleeps until round 3 unless mail wakes it, and
// stops there.
type napOnce struct{}

func (napOnce) RoundW(r int, recv, send []local.Word) bool {
	if r == 1 {
		local.Broadcast(send, local.MakeWord(1, 1))
	}
	return r >= 3
}

func (napOnce) WakeW(int) int { return 3 }

// TestSetupFootprint pins the heap bytes a run allocates per node — a
// bit-plane run, a 4-trial bit batch and a sleeping word run — setup
// included, on a graph of sim-1m's shape (average degree 6): views,
// random streams, adapters, node slices, active sets and planes. The
// program allocates nothing itself. Bytes per node were 406 for one run and
// 1,239 for the 4-trial batch while every adapter carried its word and
// boxed fallback state and the views were materialized as a []View; the
// ceilings sit just above the lazy-shim, view-set layout's 190 and 591.
// A sleeping word run reads 269: its word planes (16 B per arc) and 12 B
// per node of wake rounds and mail stamps.
func TestSetupFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race detector")
	}
	const n = 20000
	topo := local.NewTopology(graph.RandomSparseGraph(n, 3*n, prob.NewSource(8).Rand()))
	f := func(local.View) local.Node { return local.BitProgram(castOnce{}) }
	cases := []struct {
		name    string
		ceiling float64
		run     func()
	}{
		{"run", 200, func() {
			if _, err := (local.SequentialEngine{}).Run(topo, f, local.Options{Source: prob.NewSource(3)}); err != nil {
				t.Fatal(err)
			}
		}},
		{"word-sleep", 280, func() {
			if _, err := (local.SequentialEngine{}).Run(topo, func(local.View) local.Node { return local.WordProgram(napOnce{}) }, local.Options{Source: prob.NewSource(3)}); err != nil {
				t.Fatal(err)
			}
		}},
		{"batch4", 620, func() {
			trials := make([]local.Trial, 4)
			for i := range trials {
				trials[i] = local.Trial{Factory: f, Opts: local.Options{Source: prob.NewSource(uint64(i + 1))}}
			}
			_, errs := local.BatchRun(topo, trials, local.BatchOptions{Workers: 2})
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
		}},
	}
	for _, c := range cases {
		got := bytesPerNode(n, c.run)
		if got > c.ceiling {
			t.Errorf("%s: a run allocates %.0f bytes per node, want ≤ %.0f", c.name, got, c.ceiling)
		}
	}
}

// bytesPerNode reports the heap bytes run allocates, divided by n. GC is
// disabled around the measurement, as in marginalAllocs.
func bytesPerNode(n int, run func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	run()
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
}
