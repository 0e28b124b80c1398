package splitting_test

import (
	"fmt"
	"os"
	"runtime"
	"testing"

	splitting "repro"
	"repro/internal/coloring"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/orient"
	"repro/internal/prob"
)

// benchExperiment runs one experiment table per benchmark iteration; these
// are the regeneration targets for EXPERIMENTS.md (DESIGN.md §3).
func benchExperiment(b *testing.B, id string) {
	runner := experiments.All()[id]
	cfg := experiments.Config{Quick: true, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		table, err := runner(cfg)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(table.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkE1(b *testing.B)  { benchExperiment(b, "E1") }  // Thm 1.1/2.5
func BenchmarkE2(b *testing.B)  { benchExperiment(b, "E2") }  // Thm 1.2
func BenchmarkE3(b *testing.B)  { benchExperiment(b, "E3") }  // Thm 2.7
func BenchmarkE4(b *testing.B)  { benchExperiment(b, "E4") }  // Lemma 2.4
func BenchmarkE5(b *testing.B)  { benchExperiment(b, "E5") }  // Lemma 2.6
func BenchmarkE6(b *testing.B)  { benchExperiment(b, "E6") }  // Lemma 2.9
func BenchmarkE7(b *testing.B)  { benchExperiment(b, "E7") }  // Thm 2.10 / Fig 1
func BenchmarkE8(b *testing.B)  { benchExperiment(b, "E8") }  // Thm 3.2
func BenchmarkE9(b *testing.B)  { benchExperiment(b, "E9") }  // Thm 3.3
func BenchmarkE10(b *testing.B) { benchExperiment(b, "E10") } // Lemma 4.1
func BenchmarkE11(b *testing.B) { benchExperiment(b, "E11") } // Lemma 4.2
func BenchmarkE12(b *testing.B) { benchExperiment(b, "E12") } // Section 5
func BenchmarkE13(b *testing.B) { benchExperiment(b, "E13") } // Thm 2.3 substrate
func BenchmarkE14(b *testing.B) { benchExperiment(b, "E14") } // ablations
func BenchmarkE15(b *testing.B) { benchExperiment(b, "E15") } // §1.1 edge splitting

// --- Microbenchmarks of the primitives -------------------------------------

func BenchmarkDeterministicSplit(b *testing.B) {
	src := splitting.NewSource(1)
	inst, err := splitting.RandomBiregularInstance(128, 256, 36, src)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := splitting.Deterministic(inst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRandomizedSplit(b *testing.B) {
	inst, err := splitting.RandomBiregularInstance(256, 1024, 12, splitting.NewSource(2))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := splitting.Randomized(inst, splitting.NewSource(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrivialRandomized(b *testing.B) {
	inst, err := splitting.RandomInstance(512, 1024, 30, splitting.NewSource(3))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := splitting.TrivialRandomized(inst, splitting.NewSource(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEulerianSplitter(b *testing.B) {
	g, err := graph.RandomRegular(512, 32, prob.NewSource(4).Rand())
	if err != nil {
		b.Fatal(err)
	}
	m, _ := graph.MultigraphFromGraph(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		orient.EulerianSplit(m)
	}
}

func BenchmarkApproxSplitter(b *testing.B) {
	g, err := graph.RandomRegular(512, 32, prob.NewSource(5).Rand())
	if err != nil {
		b.Fatal(err)
	}
	m, _ := graph.MultigraphFromGraph(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		orient.ApproxSplitDet(m, 0.25)
	}
}

// benchExchange is a fixed-round message-exchange program used to measure
// raw engine throughput: every node accumulates what it hears and forwards
// the sum for `rounds` rounds. The send buffer is reused across rounds so
// steady-state allocation reflects the engine and the message
// representation, not the program — on the boxed plane each per-port
// assignment still boxes one interface value per round.
type benchExchange struct {
	rounds int
	acc    uint64
	send   []local.Message
}

func (n *benchExchange) Round(r int, recv []local.Message) ([]local.Message, bool) {
	for _, m := range recv {
		if m != nil {
			n.acc += m.(uint64)
		}
	}
	if r > n.rounds {
		return nil, true
	}
	x := n.acc + uint64(r)
	for p := range n.send {
		n.send[p] = x
	}
	return n.send, false
}

// benchExchangeW is benchExchange on the word plane: same accumulate-and-
// forward shape, but messages are Words written into the engine-provided
// send row, so a steady-state round allocates nothing at all.
type benchExchangeW struct {
	rounds int
	acc    uint64
}

func (n *benchExchangeW) RoundW(r int, recv, send []local.Word) bool {
	for _, m := range recv {
		if m != local.NilWord {
			n.acc += m.Payload()
		}
	}
	if r > n.rounds {
		return true
	}
	local.Broadcast(send, local.MakeWord(1, n.acc+uint64(r)))
	return false
}

// benchExchangeB is benchExchange on the packed bit plane — the shape of
// every migrated algorithm message (weak-splitting votes, retry bits):
// tally what is heard with the word-parallel aggregates (the idiom the
// shattering and verifier programs use), broadcast one bit, allocate
// nothing. The plane cost drops from 64 to 2 bits per arc (presence +
// value).
type benchExchangeB struct {
	rounds int
	acc    uint64
}

// CastB implements local.BitBroadcaster — every send is a full-row
// broadcast, so the engines' fused scatter+aggregate fast path applies.
// RoundB below must stay observationally identical (it is the path the
// word and boxed planes take).
func (n *benchExchangeB) CastB(r int, recv local.BitRow) (uint64, bool, bool) {
	n.acc += uint64(recv.CountValue(1))
	if r > n.rounds {
		return 0, false, true
	}
	return (n.acc + uint64(r)) & 1, true, false
}

func (n *benchExchangeB) RoundB(r int, recv, send local.BitRow) bool {
	v, cast, done := n.CastB(r, recv)
	if cast {
		send.Broadcast(v)
	}
	return done
}

// exchangeFactory builds the exchange program for one message plane
// representation ("bit", "word" or "boxed"); rounds is the fixed round
// budget.
func exchangeFactory(rounds int, plane string) local.Factory {
	switch plane {
	case "bit":
		return func(v local.View) local.Node {
			return local.BitProgram(&benchExchangeB{rounds: rounds, acc: uint64(v.ID)})
		}
	case "word":
		return func(v local.View) local.Node {
			return local.WordProgram(&benchExchangeW{rounds: rounds, acc: uint64(v.ID)})
		}
	default:
		return func(v local.View) local.Node {
			return &benchExchange{rounds: rounds, acc: uint64(v.ID), send: make([]local.Message, v.Deg)}
		}
	}
}

// planeBitsPerArc is the per-arc footprint of one message plane: 128 bits
// of interface header on the boxed plane, 64 on the word plane, and
// presence + one value bit on the bit plane (2-bit-lane programs cost one
// more). The double-buffered pair costs twice this.
func planeBitsPerArc(plane string) float64 {
	switch plane {
	case "bit":
		return 2
	case "word":
		return 64
	default:
		return 128
	}
}

// planeBytesPerNode is the per-node footprint of the double-buffered
// message plane pair (per trial, for batches).
func planeBytesPerNode(arcs, n int, plane string) float64 {
	return 2 * planeBitsPerArc(plane) / 8 * float64(arcs) / float64(n)
}

// measureAllocsPerRound reports the marginal heap allocations of one
// steady-state round: it runs the workload at two round budgets and divides
// the difference in mallocs by the difference in rounds, so one-time setup
// (views, nodes, planes, worker spawn) cancels out. GC stays enabled —
// Mallocs is monotone, and the boxed 1M-node cases would otherwise pile up
// gigabytes of uncollectable garbage; the strict zero-allocation pins (with
// GC disabled, on small graphs) live in internal/local's regression tests.
func measureAllocsPerRound(run func(rounds int)) float64 {
	const lo, hi = 4, 24
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	run(lo)
	runtime.ReadMemStats(&m1)
	run(hi)
	runtime.ReadMemStats(&m2)
	d := float64(int64(m2.Mallocs-m1.Mallocs)-int64(m1.Mallocs-m0.Mallocs)) / float64(hi-lo)
	if d < 0 {
		d = 0
	}
	return d
}

// BenchmarkEngines compares the LOCAL engines on raw synchronous-round
// throughput: a large sparse random graph (100k nodes), a heavy-tailed
// power-law graph of the same size (the case that separates arc-balanced
// from node-count sharding — its hubs serialize a node-count-sharded pool),
// a high-girth bipartite tree, and — in full (non -short) runs — a
// million-node random graph that only fits because the CSR graph core
// stores adjacency in two flat arrays. The seq/pool cases run the word-plane
// program (the broadest fast path; seq is the pool at one inline worker);
// pool-bit runs the bit-plane program the migrated splitting algorithms
// use, and seq-boxed keeps the boxed Message plane — which only the boxed
// reference loop runs — as the in-benchmark baseline. rounds/sec is the
// headline metric; allocs/round (marginal, setup excluded) and
// plane-bytes/node track the message-plane cost next to graph-bytes/node.
func BenchmarkEngines(b *testing.B) {
	cases := []struct {
		name   string
		build  func() *graph.Graph
		rounds int
		large  bool
	}{
		{"random100k", func() *graph.Graph {
			return graph.RandomSparseGraph(100_000, 300_000, prob.NewSource(6).Rand())
		}, 20, false},
		{"powerlaw100k", func() *graph.Graph {
			return graph.RandomPowerLawGraph(100_000, 2.1, 2000, prob.NewSource(12).Rand())
		}, 20, false},
		{"highgirth-tree", func() *graph.Graph {
			t, err := graph.HighGirthTree(7, 5)
			if err != nil {
				b.Fatal(err)
			}
			return t.AsGraph()
		}, 20, false},
		{"random1M", func() *graph.Graph {
			return graph.RandomSparseGraph(1_000_000, 3_000_000, prob.NewSource(8).Rand())
		}, 8, true},
	}
	engines := []struct {
		name  string
		e     local.Engine
		plane string
	}{
		{"seq", local.SequentialEngine{}, "word"},
		{"pool", local.WorkerPoolEngine{}, "word"},
		{"pool-bit", local.WorkerPoolEngine{}, "bit"},
		{"seq-boxed", local.SequentialEngine{}, "boxed"},
	}
	for _, tc := range cases {
		if tc.large && testing.Short() {
			continue
		}
		g := tc.build()
		topo := local.NewTopology(g)
		csr := g.CSR()
		n := g.N()
		arcs := len(csr.Edges)
		graphBytesPerNode := float64(4*(len(csr.Off)+arcs)) / float64(n)
		for _, eng := range engines {
			b.Run(tc.name+"/"+eng.name, func(b *testing.B) {
				b.ReportAllocs()
				allocsPerRound := measureAllocsPerRound(func(rounds int) {
					if _, err := eng.e.Run(topo, exchangeFactory(rounds, eng.plane), local.Options{}); err != nil {
						b.Fatal(err)
					}
				})
				factory := exchangeFactory(tc.rounds, eng.plane)
				b.ResetTimer()
				totalRounds := 0
				for i := 0; i < b.N; i++ {
					stats, err := eng.e.Run(topo, factory, local.Options{})
					if err != nil {
						b.Fatal(err)
					}
					totalRounds += stats.Rounds
				}
				b.ReportMetric(float64(totalRounds)/b.Elapsed().Seconds(), "rounds/sec")
				b.ReportMetric(graphBytesPerNode, "graph-bytes/node")
				b.ReportMetric(planeBytesPerNode(arcs, n, eng.plane), "plane-bytes/node")
				b.ReportMetric(allocsPerRound, "allocs/round")
			})
		}
	}
}

// BenchmarkMsgPlane is the message-plane comparison the BENCH_msgplane.json
// and BENCH_bitplane.json CI artifacts snapshot: the same exchange program
// on the bit, word and boxed planes, across the execution paths (sequential,
// worker pool, and a 4-trial batch), at 100k nodes
// and — in full (non -short) runs — at 1M nodes, where the 64-bit word
// planes leave the LLC and stream through DRAM while the packed bit planes
// stay cache-resident (this is where the bit plane's ≥2× shows up).
// allocs/round is the marginal steady-state figure (setup excluded),
// plane-bits/arc the single-plane footprint (≤ 2 for the bit plane), and
// plane-bytes/node the double-buffered per-node cost, so the artifacts
// track GC pressure and memory cost of each representation across PRs. The
// boxed plane runs on the seq path only (pool and batch hand boxed runs to
// the same boxed loop). The 1M case drops the boxed plane (a
// million-node boxed run is gigabytes of GC-scanned pointers) and runs 2
// batch trials instead of 4.
func BenchmarkMsgPlane(b *testing.B) {
	const rounds = 20
	sizes := []struct {
		name   string
		n, m   int
		trials int
		large  bool
	}{
		{"100k", 100_000, 300_000, 4, false},
		{"1M", 1_000_000, 3_000_000, 2, true},
	}
	for _, sz := range sizes {
		if sz.large && testing.Short() {
			continue
		}
		g := graph.RandomSparseGraph(sz.n, sz.m, prob.NewSource(14).Rand())
		topo := local.NewTopology(g)
		arcs := len(g.CSR().Edges)
		engineRun := func(e local.Engine) func(b *testing.B, rounds, trials int, plane string) int {
			return func(b *testing.B, rounds, _ int, plane string) int {
				stats, err := e.Run(topo, exchangeFactory(rounds, plane), local.Options{})
				if err != nil {
					b.Fatal(err)
				}
				return stats.Rounds
			}
		}
		paths := []struct {
			name string
			run  func(b *testing.B, rounds, trials int, plane string) (totalRounds int)
		}{
			{"seq", engineRun(local.SequentialEngine{})},
			{"pool", engineRun(local.WorkerPoolEngine{})},
			{"batch", func(b *testing.B, rounds, trials int, plane string) int {
				ts := make([]local.Trial, trials)
				for s := range ts {
					ts[s] = local.Trial{Factory: exchangeFactory(rounds, plane)}
				}
				stats, errs := local.BatchRun(topo, ts, local.BatchOptions{})
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
				total := 0
				for _, st := range stats {
					total += st.Rounds
				}
				return total
			}},
		}
		for _, pt := range paths {
			for _, plane := range []string{"bit", "word", "boxed"} {
				if plane == "boxed" && (sz.large || pt.name != "seq") {
					continue
				}
				b.Run(sz.name+"/"+pt.name+"/"+plane, func(b *testing.B) {
					b.ReportAllocs()
					allocsPerRound := measureAllocsPerRound(func(rounds int) { pt.run(b, rounds, sz.trials, plane) })
					b.ResetTimer()
					totalRounds := 0
					for i := 0; i < b.N; i++ {
						totalRounds += pt.run(b, rounds, sz.trials, plane)
					}
					b.ReportMetric(float64(totalRounds)/b.Elapsed().Seconds(), "rounds/sec")
					b.ReportMetric(planeBitsPerArc(plane), "plane-bits/arc")
					b.ReportMetric(planeBytesPerNode(arcs, sz.n, plane), "plane-bytes/node")
					b.ReportMetric(allocsPerRound, "allocs/round")
				})
			}
		}
	}
}

// batchTail is the shattering-shaped benchmark program, the round structure
// of the paper's randomized algorithms (E2/E6): almost every node decides
// locally and terminates in round one — the zero-round splitter — while a
// sparse residual (the unshattered components) keeps exchanging messages
// for a `tail`-round tail. Per-trial engine runs pay setup and per-round
// scheduling for every seed of a sweep; the batched runner pays them once,
// which is exactly what this shape exposes.
type batchTail struct {
	stop int
	acc  uint64
	send []local.Message
}

func (n *batchTail) Round(r int, recv []local.Message) ([]local.Message, bool) {
	for _, m := range recv {
		if m != nil {
			n.acc += m.(uint64)
		}
	}
	if r >= n.stop {
		return nil, true
	}
	// Box the round's value once; per-port interface conversions would
	// allocate deg times per node per round and drown the sweep in GC.
	var x local.Message = n.acc + uint64(r)
	for p := range n.send {
		n.send[p] = x
	}
	return n.send, false
}

func batchTailFactory(tail int) local.Factory {
	return func(v local.View) local.Node {
		stop := 2 + int(v.Rand.Uint64()%2) // coordinate-and-terminate within 3 rounds
		if v.Rand.Uint64()%2048 == 0 {
			stop = tail // residual component node
		}
		return &batchTail{stop: stop, acc: uint64(v.ID), send: make([]local.Message, v.Deg)}
	}
}

// BenchmarkBatch compares a multi-seed sweep (100k nodes × 8 seeds) run the
// pre-batch way — instance and topology rebuilt and the worker-pool engine
// invoked once per trial, as the unbatched harness does — against one
// BatchRun over a shared topology. trials/sec is the headline metric; the
// batched path must stay bit-identical (pinned by the determinism and
// golden suites), so any gap is pure scheduling, setup, and allocation
// amortization. The instance rebuild and the view construction amortize on
// any machine; the merged round barriers and the residual tails only pay
// off across GOMAXPROCS workers, so the ratio grows with core count (CI's
// BENCH_batch.json artifact tracks it per runner).
func BenchmarkBatch(b *testing.B) {
	const (
		nNodes = 100_000
		nEdges = 300_000
		nSeeds = 8
		tail   = 2500
	)
	// The trial grid's instance spec is fixed (seed-independent), as the
	// batch path requires; the unbatched harness still rebuilds the instance
	// and its topology for every cell (see Grid.Run — the isolation is
	// deliberate), so the per-trial baseline pays that rebuild exactly as a
	// pre-batch sweep does.
	buildTopo := func() *local.Topology {
		return local.NewTopology(graph.RandomSparseGraph(nNodes, nEdges, prob.NewSource(9).Rand()))
	}
	mkTrial := func(seed uint64) local.Trial {
		return local.Trial{
			Factory: batchTailFactory(tail),
			Opts:    local.Options{Source: prob.NewSource(seed)},
		}
	}
	b.Run("pool-per-trial", func(b *testing.B) {
		b.ReportAllocs()
		trialCount := 0
		for i := 0; i < b.N; i++ {
			for s := 0; s < nSeeds; s++ {
				tr := mkTrial(uint64(s + 1))
				if _, err := (local.WorkerPoolEngine{}).Run(buildTopo(), tr.Factory, tr.Opts); err != nil {
					b.Fatal(err)
				}
				trialCount++
			}
		}
		b.ReportMetric(float64(trialCount)/b.Elapsed().Seconds(), "trials/sec")
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		trialCount := 0
		for i := 0; i < b.N; i++ {
			topo := buildTopo()
			trials := make([]local.Trial, nSeeds)
			for s := range trials {
				trials[s] = mkTrial(uint64(s + 1))
			}
			_, errs := local.BatchRun(topo, trials, local.BatchOptions{})
			for s, err := range errs {
				if err != nil {
					b.Fatalf("trial %d: %v", s, err)
				}
			}
			trialCount += nSeeds
		}
		b.ReportMetric(float64(trialCount)/b.Elapsed().Seconds(), "trials/sec")
	})
}

// BenchmarkRealGraph is the real-graph ingestion benchmark behind CI's
// BENCH_realgraph.json artifact: a 200k-node heavy-tailed graph is packed
// into the binary CSR snapshot format once, and the benchmark measures (a)
// snapshot load time — file read, checksum verification, structural
// validation, zero-copy CSR adoption, and the Section 1.2 instance
// encoding; the import itself performs no O(m) rebuild, which is the
// contract internal/graph's no-rebuild test pins — and (b) simulated-round
// throughput on the loaded topology, so a regression in either half of the
// "pack once, load fast, run fast" story shows up in the artifact.
func BenchmarkRealGraph(b *testing.B) {
	g := graph.RandomPowerLawGraph(200_000, 2.1, 2000, prob.NewSource(21).Rand())
	path := b.TempDir() + "/powerlaw200k.csr"
	if err := splitting.WriteGraphSnapshot(path, g); err != nil {
		b.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("snapshot-load", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := splitting.ReadGraphSnapshot(path); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(fi.Size())/1e6/(b.Elapsed().Seconds()/float64(b.N)), "MB/sec")
	})
	b.Run("snapshot-load-instance", func(b *testing.B) {
		// The wsplit -graph path: snapshot → Section 1.2 splitting instance.
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := splitting.ReadInstanceFile(path); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rounds", func(b *testing.B) {
		loaded, err := splitting.ReadGraphSnapshot(path)
		if err != nil {
			b.Fatal(err)
		}
		topo := local.NewTopology(loaded)
		factory := exchangeFactory(20, "word")
		b.ReportAllocs()
		b.ResetTimer()
		totalRounds := 0
		for i := 0; i < b.N; i++ {
			stats, err := (local.WorkerPoolEngine{}).Run(topo, factory, local.Options{})
			if err != nil {
				b.Fatal(err)
			}
			totalRounds += stats.Rounds
		}
		b.ReportMetric(float64(totalRounds)/b.Elapsed().Seconds(), "rounds/sec")
	})
}

// BenchmarkEnginesColoring keeps the original end-to-end comparison: the
// full Δ+1 coloring pipeline under each engine (ablation E14's wall-clock
// counterpart).
func BenchmarkEnginesColoring(b *testing.B) {
	g := graph.RandomGraph(400, 0.05, prob.NewSource(6).Rand())
	for _, eng := range []struct {
		name string
		e    local.Engine
	}{
		{"seq", local.SequentialEngine{}},
		{"pool", local.WorkerPoolEngine{}},
	} {
		b.Run(eng.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := coloring.DeltaPlusOne(g, eng.e, local.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkConflictColoringScaling(b *testing.B) {
	for _, nv := range []int{128, 512} {
		b.Run(fmt.Sprintf("nv=%d", nv), func(b *testing.B) {
			inst, err := splitting.RandomInstance(nv/2, nv, 14, splitting.NewSource(uint64(nv)))
			if err != nil {
				b.Fatal(err)
			}
			conflict := inst.VPower(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := coloring.DeltaPlusOne(conflict, local.SequentialEngine{}, local.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFaults is the fault-path overhead snapshot the BENCH_faults.json
// CI artifact records: the 100k-node word-plane exchange, clean versus
// under active fault plans, on the sequential and pool engines. The clean
// rows measure the fault-free hot path (the engines carry a nil fault state
// when no plan is active, so any creep here is a regression in the
// zero-cost-when-off contract); the faulty rows price the round-boundary
// drop scan, the redelivery queue and the crash pass in rounds/sec, with
// the injected counts reported per run.
func BenchmarkFaults(b *testing.B) {
	g := graph.RandomSparseGraph(100_000, 300_000, prob.NewSource(6).Rand())
	topo := local.NewTopology(g)
	const rounds = 20
	plans := []struct {
		name string
		fp   *local.FaultPlan
	}{
		{"clean", nil},
		{"drop10", &local.FaultPlan{Seed: 42, Drop: 0.1}},
		{"drop10-delay2", &local.FaultPlan{Seed: 42, Drop: 0.1, Delay: 2}},
		{"crash1e-4", &local.FaultPlan{Seed: 42, Crash: 1e-4}},
	}
	engines := []struct {
		name string
		e    local.Engine
	}{
		{"seq", local.SequentialEngine{}},
		{"pool", local.WorkerPoolEngine{}},
	}
	for _, eng := range engines {
		for _, pc := range plans {
			b.Run(eng.name+"/"+pc.name, func(b *testing.B) {
				b.ReportAllocs()
				factory := exchangeFactory(rounds, "word")
				b.ResetTimer()
				totalRounds := 0
				var dropped, delayed int64
				crashed := 0
				for i := 0; i < b.N; i++ {
					stats, err := eng.e.Run(topo, factory, local.Options{Faults: pc.fp})
					if err != nil {
						b.Fatal(err)
					}
					totalRounds += stats.Rounds
					dropped += stats.Dropped
					delayed += stats.Delayed
					crashed += stats.Crashed
				}
				b.ReportMetric(float64(totalRounds)/b.Elapsed().Seconds(), "rounds/sec")
				b.ReportMetric(float64(dropped)/float64(b.N), "dropped/run")
				b.ReportMetric(float64(delayed)/float64(b.N), "delayed/run")
				b.ReportMetric(float64(crashed)/float64(b.N), "crashed/run")
			})
		}
	}
}
