package main

// The sweep workload: the paper's algorithms swept the way a researcher
// runs `wsplit -algo … -trials N -workers 2`. Two experiments.Grid runs go
// one after the other on the sequential engine (the CLI default), with the
// instance rebuilt per seed as the CLI does:
//
//   - det:  Theorem 2.5 → Lemma 2.2 on leftregular nu=1000 nv=4000 d=32
//     (δ ≥ 2·log n);
//   - rand: Theorem 1.2, the shattering path, on leftregular nu=20000
//     nv=80000 d=24 (δ < 2·log n), whose residue is tens of thousands of
//     tiny components, each its own LOCAL run.
//
// Graph transforms, derand/slocal and core do the work here; local runs
// only many setup-dominated tiny simulations.

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/check"
	"repro/internal/coloring"
	"repro/internal/core"
	"repro/internal/derand"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/prob"
	"repro/internal/slocal"
)

// sweepGrid is one algorithm's grid.
type sweepGrid struct {
	algo       string
	nu, nv, d  int
	trials     int // seeds per cycle
	shadowRuns int // traced cycles: seeds re-run step by step for attribution
}

type sweepParams struct {
	grids     []sweepGrid
	workers   int
	setupReps int
}

var sweepDefaults = sweepParams{
	grids: []sweepGrid{
		{algo: "det", nu: 1000, nv: 4000, d: 32, trials: 32, shadowRuns: 2},
		{algo: "rand", nu: 20000, nv: 80000, d: 24, trials: 16, shadowRuns: 2},
	},
	workers:   runtime.GOMAXPROCS(0),
	setupReps: 5,
}

// gridSeeds are the trial seeds of one grid: the same every cycle, so each
// cycle must reproduce the first cycle's results exactly.
func gridSeeds(seed uint64, gi, n int) []uint64 {
	s := make([]uint64, n)
	for i := range s {
		s[i] = seed*1_000_003 + uint64(gi)*10_007 + uint64(i)
	}
	return s
}

// cycleOut is what one grid run reports.
type cycleOut struct {
	wall      time.Duration
	busy      time.Duration // Σ per-trial Elapsed
	simRounds int64
	trials    []experiments.TrialResult
}

func sweepWorkload(cfg config, res *result, p sweepParams) error {
	setups, err := probeSetup(res, "sweep", cfg.seed, p.setupReps)
	if err != nil {
		return err
	}
	res.set("setup_s", "s", median(setups))

	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	rates := make([][]float64, len(p.grids))       // plain cycles
	tracedRates := make([][]float64, len(p.grids)) // traced cycles
	cpus := make([][]float64, len(p.grids))        // plain: CPU ms per trial
	firstRounds := make([]int64, len(p.grids))
	var idle []float64
	ref := newRefLoop()
	deadline := cfg.deadline(time.Now())
	for i := 0; ; i++ {
		traced := cfg.trace && i%2 == 1
		var busy, wall time.Duration
		for gi, g := range p.grids {
			seeds := gridSeeds(cfg.seed, gi, g.trials)
			var tr *gridTracer
			if traced {
				tr = &gridTracer{rec: rec, algo: g.algo, group: int64(i)<<32 | int64(gi)<<24, keep: g.shadowRuns}
			}
			if !traced {
				ref.sample()
			}
			cpu0 := cpuTime()
			out := runGrid(g, seeds, p.workers, tr)
			cpu := ms(cpuTime()-cpu0) / float64(len(out.trials))
			checkTrials(res, g.algo, out.trials)
			if i == 0 {
				firstRounds[gi] = out.simRounds
			} else if out.simRounds != firstRounds[gi] {
				res.fail("sweep %s: cycle %d simulated %d rounds, the first cycle %d", g.algo, i, out.simRounds, firstRounds[gi])
			}
			rate := float64(len(out.trials)) / out.wall.Seconds()
			if traced {
				tracedRates[gi] = append(tracedRates[gi], rate)
				if err := shadow(rec, g, seeds[:g.shadowRuns], tr.group, tr.colors); err != nil {
					res.attempt()
					res.fail("sweep %s attribution pass: %v", g.algo, err)
				}
			} else {
				rates[gi] = append(rates[gi], rate)
				cpus[gi] = append(cpus[gi], cpu)
				busy += out.busy
				wall += out.wall
			}
		}
		if !traced {
			idle = append(idle, 1-busy.Seconds()/(float64(p.workers)*wall.Seconds()))
		}
		if cfg.trace && i < 1 {
			continue
		}
		if !time.Now().Before(deadline) {
			break
		}
	}

	var parts, cpu []float64
	for gi, g := range p.grids {
		r := median(rates[gi])
		parts = append(parts, r)
		cpu = append(cpu, median(cpus[gi]))
		res.set(g.algo+"_trials_per_s", "trials/s", r)
		res.set(g.algo+"_cpu_ms_per_trial", "ms", median(cpus[gi]))
		res.set("core."+g.algo+".sim_rounds_per_cycle", "rounds", float64(firstRounds[gi]))
	}
	res.set("throughput_per_s", "1/s", geomean(parts))
	ref.report(res, geomean(cpu), 1000/geomean(parts))
	if !cfg.trace {
		return nil
	}

	var trc []float64
	var simRounds int64
	for gi, g := range p.grids {
		trc = append(trc, median(tracedRates[gi]))
		res.set(g.algo+"_trials_per_s", "trials/s", median(tracedRates[gi]))
		simRounds += firstRounds[gi]
	}
	res.set("trace.overhead_frac", "ratio", 1-geomean(trc)/geomean(parts))
	res.set("core.sim_rounds", "count", float64(simRounds))
	res.set("experiments.worker_idle_frac", "ratio", median(idle))
	res.set("graph.generate_ms", "ms", median(rec.durations("graph.generate")))
	res.set("check.verify_ms", "ms", median(rec.durations("check.verify")))
	self := rec.selfByName()
	var runs, trials, localBusy, solveBusy float64
	for _, g := range p.grids {
		res.set("core."+g.algo+".solve_ms", "ms", median(rec.durations("core."+g.algo+".solve")))
		res.set("core."+g.algo+".self_ms", "ms", median(self["core."+g.algo+".solve"]))
		for _, d := range rec.durations("core." + g.algo + ".solve") {
			solveBusy += d
			trials++
		}
	}
	for _, s := range rec.spansNamed("local.run") {
		runs += float64(s.Count)
		localBusy += float64(s.Busy) / 1e6
	}
	if trials > 0 {
		res.set("local.runs", "count", runs/trials)
	}
	if solveBusy > 0 {
		res.set("local.busy_share", "ratio", localBusy/solveBusy)
	}
	for _, name := range []string{"graph.vpower", "coloring.greedy", "slocal.compile", "graph.normalize", "core.shatter", "graph.residual"} {
		res.set(name+"_ms", "ms", median(rec.durations(name)))
	}
	return finishTrace(cfg, rec, "sweep")
}

// runGrid runs one algorithm's grid over seeds, rebuilding the instance per
// seed as wsplit does. A non-nil tracer wraps Build and Solve.
func runGrid(g sweepGrid, seeds []uint64, workers int, tr *gridTracer) cycleOut {
	gs := experiments.GraphSpec{
		Name: fmt.Sprintf("leftregular-%dx%d-d%d", g.nu, g.nv, g.d),
		Build: func(src *prob.Source) (*graph.Bipartite, error) {
			return experiments.BuildInstance("leftregular", "", g.nu, g.nv, g.d, src)
		},
	}
	as, ok := experiments.AlgoSpecFor(g.algo)
	if !ok {
		panic("unknown algorithm " + g.algo) // the grids above name registered algorithms
	}
	if tr != nil {
		gs, as = tr.wrap(gs, as, seeds)
	}
	grid := experiments.Grid{
		Graphs:  []experiments.GraphSpec{gs},
		Algos:   []experiments.AlgoSpec{as},
		Seeds:   seeds,
		Engine:  local.SequentialEngine{},
		Workers: workers,
	}
	t0 := time.Now()
	trials := grid.Run()
	out := cycleOut{wall: time.Since(t0), trials: trials}
	for _, t := range trials {
		out.busy += t.Elapsed
		out.simRounds += int64(t.Rounds)
	}
	return out
}

// checkTrials counts every trial and fails the run on any error or invalid
// splitting (Valid is check.WeakSplit's verdict on the trial's colors).
func checkTrials(res *result, algo string, trials []experiments.TrialResult) {
	for _, t := range trials {
		res.attempt()
		if t.Err != "" || !t.Valid {
			res.fail("sweep %s seed %d: valid=%t err=%q", algo, t.Seed, t.Valid, t.Err)
		}
	}
}

// gridTracer wraps a grid's GraphSpec.Build and AlgoSpec.Solve with spans.
// Each trial's spans share one group id; the solver gets a timing engine
// whose runs are filed under the solve span. The colors of the first keep
// trials are kept for the attribution pass to check itself against.
type gridTracer struct {
	rec   *recorder
	algo  string
	group int64
	keep  int

	mu     sync.Mutex
	colors map[int64][]int // trial index → the solver's colors
}

func (t *gridTracer) wrap(gs experiments.GraphSpec, as experiments.AlgoSpec, seeds []uint64) (experiments.GraphSpec, experiments.AlgoSpec) {
	// The harness hands Build NewSource(seed) and Solve
	// NewSource(seed).Fork(1); both map back to the trial's index.
	index := map[uint64]int64{}
	for i, s := range seeds {
		index[s] = int64(i)
		index[prob.NewSource(s).Fork(1).Seed()] = int64(i)
	}
	build, solve := gs.Build, as.Solve
	gs.Build = func(src *prob.Source) (*graph.Bipartite, error) {
		id := t.rec.begin("graph.generate", t.group|index[src.Seed()], -1)
		defer t.rec.end(id)
		return build(src)
	}
	as.Solve = func(b *graph.Bipartite, src *prob.Source, eng local.Engine) (*core.Result, error) {
		group := t.group | index[src.Seed()]
		id := t.rec.begin("core."+t.algo+".solve", group, -1)
		agg := &runAgg{}
		r, err := solve(b, src, timingEngine{inner: eng, agg: agg})
		t.rec.end(id)
		agg.file(t.rec, group, id)
		if i := index[src.Seed()]; err == nil && i < int64(t.keep) {
			t.mu.Lock()
			if t.colors == nil {
				t.colors = map[int64][]int{}
			}
			t.colors[i] = r.Colors
			t.mu.Unlock()
		}
		if err == nil {
			vid := t.rec.begin("check.verify", group, -1)
			verr := check.WeakSplit(b, r.Colors, 0)
			t.rec.end(vid)
			if verr != nil {
				err = fmt.Errorf("benchmark re-check: %w", verr)
			}
		}
		return r, err
	}
	return gs, as
}

// shadow re-runs the inner steps of a solve from outside, through the same
// public functions the solver calls, and times each: the attribution of
// graph, coloring, slocal/derand and core time inside a trial. The steps
// are a copy of the solver's pipeline, so each re-run is checked against
// the colors the solver produced for the same seed (want, by trial index):
// det's compiled labels must be its colors, and every variable rand's
// shattering colored must keep that color. A copy that no longer matches
// the solver fails the run rather than timing a pipeline nobody runs.
func shadow(rec *recorder, g sweepGrid, seeds []uint64, group int64, want map[int64][]int) error {
	for i, seed := range seeds {
		solved, ok := want[int64(i)]
		if !ok {
			return fmt.Errorf("seed %d: the traced grid kept no colors to check against", seed)
		}
		b, err := experiments.BuildInstance("leftregular", "", g.nu, g.nv, g.d, prob.NewSource(seed))
		if err != nil {
			return err
		}
		src := prob.NewSource(seed).Fork(1)
		timed := func(name string, f func()) {
			id := rec.begin(name, group, -1)
			f()
			rec.end(id)
		}
		switch g.algo {
		case "det":
			// Lemma 2.2 as core.TruncatedDerandomized runs it.
			keep := int(math.Ceil(2 * math.Log2(float64(b.N()))))
			h := graph.TruncateLeftDegrees(b, keep)
			var conflict *graph.Graph
			timed("graph.vpower", func() { conflict = h.VPower(1) })
			var col *coloring.Result
			var compiled *slocal.CompiledResult
			timed("coloring.greedy", func() { col = coloring.GreedySequential(conflict) })
			timed("slocal.compile", func() {
				vtc := make([][]int32, h.NV())
				for v := range vtc {
					vtc[v] = h.NbrV(v)
				}
				degs := make([]int, h.NU())
				for u := range degs {
					degs[u] = h.DegU(u)
				}
				compiled, err = slocal.CompileGreedy(derand.NewWeakSplitEstimator(vtc, degs), col.Colors, conflict.MaxDeg()+1, 2)
			})
			if err != nil {
				return err
			}
			if v := firstDiff(compiled.Labels, solved); v >= 0 {
				return fmt.Errorf("seed %d: det attribution pass diverged from the solver at variable %d", seed, v)
			}
		case "rand":
			// Theorem 1.2's shattering path as core.RandomizedSplit runs it.
			var vs *graph.VirtualSplit
			timed("graph.normalize", func() { vs, err = graph.NormalizeLeftDegrees(b, b.MinDegU()) })
			if err != nil {
				return err
			}
			var sh *core.ShatterOutcome
			timed("core.shatter", func() { sh = core.Shatter(vs.B, src.Fork(2)) })
			timed("graph.residual", func() {
				h, _, _ := sh.Residual(vs.B)
				h.ConnectedComponents()
			})
			if v := firstDiff(sh.Colors, solved); v >= 0 {
				return fmt.Errorf("seed %d: rand attribution pass diverged from the solver at variable %d", seed, v)
			}
		}
	}
	return nil
}

// firstDiff returns the first variable where got and want differ, skipping
// variables got leaves uncolored, or -1 when they agree (lengths included).
func firstDiff(got, want []int) int {
	if len(got) != len(want) {
		return 0
	}
	for v := range got {
		if got[v] != core.Uncolored && got[v] != want[v] {
			return v
		}
	}
	return -1
}
