package main

// The sim-1m workload: the LOCAL runtime used as a library. A 1M-node,
// 3M-edge random graph is packed into a CSR snapshot, loaded back and built
// into a topology (setup_s), then four sub-runs exercise the engine:
//
//   - bit:   a fixed-round bit-plane broadcast exchange on the pool engine
//     (dense rounds: fused scatter, prefetch, wholesale clears);
//   - batch: the same program as a 4-trial BatchRun;
//   - tail:  a shattering-tail bit program on pool: all but ~1/2048 of the
//     nodes stop within 3 rounds, the rest run a long tail (sparse
//     retirement and the fixed cost of a round);
//   - color: coloring.DeltaPlusOne (Linial + Kuhn–Wattenhofer) on a
//     100k-node graph of the same family, the multi-round word-plane
//     program.
//
// Engines are picked by name through local.ParseEngine so the workload
// survives engine refactors.

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/prob"
)

// simParams sizes the workload. Round budgets come in pairs: the high
// budget is the measured sub-run, the low one exists only in the traced run
// to split a sub-run's time into setup and per-round cost.
type simParams struct {
	nodes, edges           int
	colorNodes, colorEdges int
	bitLo, bitHi           int
	batchTrials            int
	batchLo, batchHi       int
	tailLo, tailHi         int
	tailOdds               int
	// colorLo is the MaxRounds of the traced low-budget color run: a couple
	// of rounds, because DeltaPlusOne's rounds are not alike, so the
	// intercept comes from a run that is nearly all setup.
	colorLo   int
	setupReps int
}

var simDefaults = simParams{
	nodes: 1_000_000, edges: 3_000_000,
	colorNodes: 100_000, colorEdges: 300_000,
	bitLo: 4, bitHi: 16,
	batchTrials: 4, batchLo: 2, batchHi: 8,
	tailLo: 2000, tailHi: 8000, tailOdds: 2048,
	colorLo:   2,
	setupReps: 5,
}

// subRun is the outcome of one timed sub-run.
type subRun struct {
	wall    time.Duration
	cpu     time.Duration // process CPU time during the sub-run
	rounds  int           // rounds (trial-rounds for batch)
	msgs    int64         // Stats.Messages (summed over trials)
	digest  uint64
	mallocs uint64
}

func (s subRun) rate() float64 { return float64(s.rounds) / s.wall.Seconds() }

// cpuPerRound is the process CPU time per round (per trial-round for batch).
func (s subRun) cpuPerRound() float64 { return ms(s.cpu) / float64(s.rounds) }

// simState is the loaded workload: the topology, the color graph and the
// sources every sub-run draws from.
type simState struct {
	p      simParams
	topo   *local.Topology
	arcs   int64
	colorG *graph.Graph
	eng    local.Engine
	src    *prob.Source
	out    []uint64   // per-node outputs of bit and tail
	bout   [][]uint64 // per-trial outputs of batch
}

func simWorkload(cfg config, res *result, p simParams) error {
	src := prob.NewSource(cfg.seed)
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	st, err := simSetup(cfg, res, p, src, rec)
	if err != nil {
		return err
	}
	settle()

	subs := []struct {
		name, metric, unit string
		run                func(budget int) (subRun, error)
		hi, lo             int // color: 0 runs to completion
	}{
		{"bit", "bit_rounds_per_s", "rounds/s", st.runBit, p.bitHi, p.bitLo},
		{"batch", "batch_trial_rounds_per_s", "trial-rounds/s", st.runBatch, p.batchHi, p.batchLo},
		{"tail", "tail_rounds_per_s", "rounds/s", st.runTail, p.tailHi, p.tailLo},
		{"color", "color_rounds_per_s", "rounds/s", st.runColor, 0, p.colorLo},
	}
	pinned := pins{}
	rates := map[string][]float64{}       // plain cycles
	cpus := map[string][]float64{}        // plain cycles: CPU ms per round
	tracedRates := map[string][]float64{} // traced cycles
	pairs := map[string][][2]subRun{}     // traced cycles: {high, low} budget runs

	ref := newRefLoop()
	deadline := cfg.deadline(time.Now())
	for i := 0; ; i++ {
		// A traced run alternates plain and traced cycles so the tracing
		// overhead is measured on the same process and inputs.
		traced := cfg.trace && i%2 == 1
		for _, sr := range subs {
			settle()
			if !traced {
				ref.samples(2)
			}
			id := -1
			var m0 uint64
			if traced {
				id = rec.begin("local."+sr.name+".run", 0, -1)
				m0 = mallocs()
			}
			cpu0 := cpuTime()
			r, err := sr.run(sr.hi)
			r.cpu = cpuTime() - cpu0
			if traced {
				r.mallocs = mallocs() - m0
				rec.end(id)
			}
			res.attempt()
			if err == nil {
				err = pinned.pin(sr.name, r)
			}
			if err != nil {
				res.fail("sim-1m %s: %v", sr.name, err)
				continue
			}
			if !traced {
				rates[sr.name] = append(rates[sr.name], r.rate())
				cpus[sr.name] = append(cpus[sr.name], r.cpuPerRound())
				continue
			}
			tracedRates[sr.name] = append(tracedRates[sr.name], r.rate())
			settle()
			id = rec.begin("local."+sr.name+".split", 0, -1)
			m0 = mallocs()
			rl, err := sr.run(sr.lo)
			rl.mallocs = mallocs() - m0
			rec.end(id)
			if err != nil {
				res.attempt()
				res.fail("sim-1m %s at the low budget: %v", sr.name, err)
				continue
			}
			pairs[sr.name] = append(pairs[sr.name], [2]subRun{r, rl})
		}
		if cfg.trace && i < 1 {
			continue // at least one plain and one traced cycle
		}
		if !time.Now().Before(deadline) {
			break
		}
	}

	var walls, cpu, trc []float64
	for _, sr := range subs {
		walls = append(walls, median(rates[sr.name]))
		cpu = append(cpu, median(cpus[sr.name]))
		res.set(sr.metric, sr.unit, median(rates[sr.name]))
		res.set(sr.name+"_cpu_ms_per_round", "ms", median(cpus[sr.name]))
		if r, ok := pinned[sr.name]; ok {
			fmt.Fprintf(cfg.out, "digest %-5s rounds=%d messages=%d fnv=%#016x\n", sr.name, r.rounds, r.msgs, r.digest)
		}
	}
	res.set("throughput_per_s", "1/s", geomean(walls))
	ref.report(res, geomean(cpu), 1000/geomean(walls))
	if !cfg.trace {
		return nil
	}

	for _, sr := range subs {
		trc = append(trc, median(tracedRates[sr.name]))
		res.set(sr.metric, sr.unit, median(tracedRates[sr.name]))
		// Two budgets, one line: wall = setup + rounds × per-round cost.
		// Batch rounds count per global round, all trials together.
		ps := pairs[sr.name]
		if len(ps) == 0 {
			continue
		}
		perRound := 1.0
		if sr.name == "batch" {
			perRound = float64(p.batchTrials)
		}
		rHi, rLo := float64(ps[0][0].rounds)/perRound, float64(ps[0][1].rounds)/perRound
		var hiWalls, loWalls, allocs []float64
		for _, pr := range ps {
			hiWalls = append(hiWalls, ms(pr[0].wall))
			loWalls = append(loWalls, ms(pr[1].wall))
			// Background runtime allocations can make a zero-allocation
			// round read a hair below zero.
			allocs = append(allocs, math.Max(0, (float64(pr[0].mallocs)-float64(pr[1].mallocs))/(rHi-rLo)))
		}
		round := (median(hiWalls) - median(loWalls)) / (rHi - rLo)
		res.set("local."+sr.name+".round_ms", "ms", round)
		res.set("local."+sr.name+".setup_ms", "ms", median(loWalls)-rLo*round)
		res.set("local."+sr.name+".allocs_per_round", "count", median(allocs))
		res.set("local."+sr.name+".messages", "count", float64(ps[0][0].msgs))
	}
	res.set("trace.overhead_frac", "ratio", 1-geomean(trc)/geomean(walls))
	return finishTrace(cfg, rec, "sim-1m")
}

// pins holds each sub-run's first outputs: every later repetition at the
// same budget must reproduce its rounds, messages and digest exactly.
type pins map[string]subRun

func (p pins) pin(name string, r subRun) error {
	want, ok := p[name]
	if !ok {
		p[name] = r
		return nil
	}
	if r.rounds != want.rounds || r.msgs != want.msgs || r.digest != want.digest {
		return fmt.Errorf("%s: repetition gave rounds=%d messages=%d digest=%#x, first run gave rounds=%d messages=%d digest=%#x",
			name, r.rounds, r.msgs, r.digest, want.rounds, want.msgs, want.digest)
	}
	return nil
}

// simSetup generates the inputs (untimed), packs the big graph into a
// snapshot, and times loading it back and building the topology, several
// times; setup_s is the median.
func simSetup(cfg config, res *result, p simParams, src *prob.Source, rec *recorder) (*simState, error) {
	g := graph.RandomSparseGraph(p.nodes, p.edges, src.Fork(1).Rand())
	wantN, wantM := g.N(), g.M()
	f, err := os.CreateTemp(cfg.tmpDir, "sim-*.csr")
	if err != nil {
		return nil, err
	}
	path := f.Name()
	defer os.Remove(path)
	w := bufio.NewWriter(f)
	err = g.ExportSnapshot(w)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("pack snapshot: %w", err)
	}
	g = nil
	st := &simState{
		p:      p,
		colorG: graph.RandomSparseGraph(p.colorNodes, p.colorEdges, src.Fork(2).Rand()),
		src:    src,
	}
	settle()

	var setups, loads, topos []float64
	for i := 0; i < p.setupReps; i++ {
		st.topo = nil
		settle()
		t0 := time.Now()
		id := rec.begin("graph.snapshot_load", 0, -1)
		lg, err := graph.ReadSnapshot(path)
		rec.end(id)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		id = rec.begin("local.topology", 0, -1)
		st.topo = local.NewTopology(lg)
		rec.end(id)
		t2 := time.Now()
		setups = append(setups, t2.Sub(t0).Seconds())
		loads = append(loads, ms(t1.Sub(t0)))
		topos = append(topos, ms(t2.Sub(t1)))
		res.attempt()
		if lg.N() != wantN || lg.M() != wantM {
			res.fail("sim-1m snapshot: loaded n=%d m=%d, packed n=%d m=%d", lg.N(), lg.M(), wantN, wantM)
		}
	}
	res.set("setup_s", "s", median(setups))
	res.set("graph.snapshot_load_ms", "ms", median(loads))
	res.set("local.topology_ms", "ms", median(topos))

	st.arcs = 2 * int64(wantM)
	st.eng, err = local.ParseEngine("pool", 0)
	if err != nil {
		return nil, err
	}
	st.out = make([]uint64, wantN)
	st.bout = make([][]uint64, p.batchTrials)
	for i := range st.bout {
		st.bout[i] = make([]uint64, wantN)
	}
	return st, nil
}

// runBit is the dense exchange. Every node broadcasts in rounds 1..budget-1
// and stops in round budget, so Rounds and Messages are known exactly.
func (st *simState) runBit(budget int) (subRun, error) {
	t0 := time.Now()
	stats, err := st.eng.Run(st.topo, exchangeFactory(budget, st.out), local.Options{Source: st.src.Fork(10)})
	r := subRun{wall: time.Since(t0), rounds: stats.Rounds, msgs: stats.Messages}
	if err != nil {
		return r, err
	}
	if want := st.arcs * int64(budget-1); stats.Rounds != budget || stats.Messages != want {
		return r, fmt.Errorf("rounds=%d messages=%d, want %d and %d", stats.Rounds, stats.Messages, budget, want)
	}
	r.digest = digest(st.out)
	return r, nil
}

// runBatch runs the dense exchange as independent trials of one BatchRun.
func (st *simState) runBatch(budget int) (subRun, error) {
	trials := make([]local.Trial, len(st.bout))
	for i := range trials {
		trials[i] = local.Trial{Factory: exchangeFactory(budget, st.bout[i]), Opts: local.Options{Source: st.src.Fork(20 + uint64(i))}}
	}
	t0 := time.Now()
	stats, errs := local.BatchRun(st.topo, trials, local.BatchOptions{})
	r := subRun{wall: time.Since(t0)}
	if err := errors.Join(errs...); err != nil {
		return r, err
	}
	want := st.arcs * int64(budget-1)
	for i, s := range stats {
		if s.Rounds != budget || s.Messages != want {
			return r, fmt.Errorf("trial %d: rounds=%d messages=%d, want %d and %d", i, s.Rounds, s.Messages, budget, want)
		}
		r.rounds += s.Rounds
		r.msgs += s.Messages
		r.digest = r.digest*1099511628211 ^ digest(st.bout[i])
	}
	return r, nil
}

// runTail is the shattering-tail program with its residue running until
// round budget.
func (st *simState) runTail(budget int) (subRun, error) {
	t0 := time.Now()
	stats, err := st.eng.Run(st.topo, tailFactory(budget, st.p.tailOdds, st.out), local.Options{Source: st.src.Fork(30)})
	r := subRun{wall: time.Since(t0), rounds: stats.Rounds, msgs: stats.Messages}
	if err != nil {
		return r, err
	}
	if stats.Rounds != budget {
		return r, fmt.Errorf("rounds=%d, want %d (no residual node?)", stats.Rounds, budget)
	}
	r.digest = digest(st.out)
	return r, nil
}

// runColor runs the (Δ+1)-coloring to completion (maxRounds 0), or — in
// the traced low-budget run — stops it after maxRounds rounds, which the
// engine reports as an error.
func (st *simState) runColor(maxRounds int) (subRun, error) {
	t0 := time.Now()
	c, err := coloring.DeltaPlusOne(st.colorG, st.eng, local.Options{MaxRounds: maxRounds})
	r := subRun{wall: time.Since(t0)}
	if maxRounds > 0 {
		if err == nil || !strings.Contains(err.Error(), "MaxRounds") {
			return r, fmt.Errorf("budget %d: want a MaxRounds stop, got %v", maxRounds, err)
		}
		r.rounds = maxRounds
		return r, nil
	}
	if err != nil {
		return r, err
	}
	if err := checkColoring(st.colorG, c); err != nil {
		return r, err
	}
	r.rounds, r.msgs, r.digest = c.Stats.Rounds, c.Stats.Messages, digest(c.Colors)
	return r, nil
}

// checkColoring verifies a (Δ+1)-coloring independently of the solver's
// own self-check.
func checkColoring(g *graph.Graph, c *coloring.Result) error {
	if err := coloring.Verify(g, c.Colors); err != nil {
		return err
	}
	maxDeg := g.MaxDeg()
	for v, col := range c.Colors {
		if col < 0 || col > maxDeg {
			return fmt.Errorf("node %d has color %d outside the palette [0, %d]", v, col, maxDeg)
		}
	}
	return nil
}
