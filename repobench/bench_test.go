package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/coloring"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/prob"
	"repro/internal/service"
)

// TestMain lets the test binary serve as a set-up probe child, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == probeArg {
		os.Exit(probeMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// A coloring with one node recolored to a neighbor's color must be caught.
func TestCorruptedColoringCaught(t *testing.T) {
	g := graph.RandomSparseGraph(2000, 6000, prob.NewSource(3).Rand())
	c, err := coloring.DeltaPlusOne(g, local.WorkerPoolEngine{}, local.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkColoring(g, c); err != nil {
		t.Fatalf("a correct coloring was rejected: %v", err)
	}
	for v := 0; v < g.N(); v++ {
		if nb := g.Neighbors(v); len(nb) > 0 {
			c.Colors[v] = c.Colors[nb[0]]
			break
		}
	}
	if err := checkColoring(g, c); err == nil {
		t.Fatal("a coloring with a monochromatic edge passed the check")
	}
}

// The dense and tail programs must give the same outputs on every engine,
// and a repetition whose digest differs from the first must be caught.
func TestSimProgramsAcrossEngines(t *testing.T) {
	g := graph.RandomSparseGraph(5000, 15000, prob.NewSource(4).Rand())
	topo := local.NewTopology(g)
	var first map[string]subRun
	for _, name := range []string{"seq", "pool", "batch"} {
		eng, err := local.ParseEngine(name, 2)
		if err != nil {
			t.Fatal(err)
		}
		st := &simState{p: simDefaults, topo: topo, arcs: 2 * int64(g.M()), eng: eng,
			src: prob.NewSource(9), out: make([]uint64, g.N())}
		st.p.tailOdds = 64
		got := map[string]subRun{}
		if got["bit"], err = st.runBit(6); err != nil {
			t.Fatalf("%s bit: %v", name, err)
		}
		if got["tail"], err = st.runTail(40); err != nil {
			t.Fatalf("%s tail: %v", name, err)
		}
		if first == nil {
			first = got
			continue
		}
		for k, r := range got {
			w := first[k]
			if r.rounds != w.rounds || r.msgs != w.msgs || r.digest != w.digest {
				t.Errorf("%s %s: %+v, seq gave %+v", name, k, r, w)
			}
		}
	}
	p := pins{}
	r := first["bit"]
	if err := p.pin("bit", r); err != nil {
		t.Fatal(err)
	}
	if err := p.pin("bit", r); err != nil {
		t.Fatalf("an identical repetition was rejected: %v", err)
	}
	r.digest ^= 1
	if err := p.pin("bit", r); err == nil {
		t.Fatal("a repetition with a different digest passed")
	}
}

// An invalid sweep trial or job fails the run.
func TestInvalidOutputsFailTheRun(t *testing.T) {
	res := newResult(false)
	checkTrials(res, "det", []experiments.TrialResult{{Seed: 1, Valid: true}, {Seed: 2, Valid: false}})
	if res.correct() || res.attempted != 2 {
		t.Fatalf("invalid trial: correct=%t attempted=%d", res.correct(), res.attempted)
	}
	res = newResult(false)
	done := service.JobStatus{ID: "sweep-1", State: service.StateDone,
		Trials: []experiments.TrialResult{{Seed: 1, Valid: true, Err: ""}}}
	bad := done
	bad.Trials = []experiments.TrialResult{{Seed: 1, Valid: false}}
	checkJobs(res, []*jobRec{{status: done}, {status: bad}, {status: service.JobStatus{State: service.StateFailed}}})
	if len(res.failures) != 2 || res.attempted != 3 {
		t.Fatalf("jobs: failures=%v attempted=%d", res.failures, res.attempted)
	}
}

// The attribution pass must agree with the solver on the same seed, and a
// solver whose colors it does not reproduce must fail it.
func TestShadowCheckedAgainstSolver(t *testing.T) {
	for _, g := range []sweepGrid{
		{algo: "det", nu: 64, nv: 256, d: 20},
		{algo: "rand", nu: 2000, nv: 8000, d: 16},
	} {
		const seed = 11
		b, err := experiments.BuildInstance("leftregular", "", g.nu, g.nv, g.d, prob.NewSource(seed))
		if err != nil {
			t.Fatal(err)
		}
		r, err := experiments.Solve(g.algo, b, prob.NewSource(seed).Fork(1), local.SequentialEngine{})
		if err != nil {
			t.Fatal(err)
		}
		if err := shadow(newRecorder(), g, []uint64{seed}, 0, map[int64][]int{0: r.Colors}); err != nil {
			t.Fatalf("%s: the pass disagrees with the solver: %v", g.algo, err)
		}
		flipped := make([]int, len(r.Colors))
		for v, c := range r.Colors {
			flipped[v] = 1 - c
		}
		if err := shadow(newRecorder(), g, []uint64{seed}, 0, map[int64][]int{0: flipped}); err == nil {
			t.Fatalf("%s: the pass accepted colors the solver did not produce", g.algo)
		}
	}
}

// BENCHMARK.json must declare exactly the workloads and metrics the
// benchmark reports.
func TestBenchmarkJSONMatchesDeclaredMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range spec.Workloads {
		wl = append(wl, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if strings.Join(wl, ",") != strings.Join(have, ",") {
		t.Errorf("workloads: BENCHMARK.json %v, benchmark %v", wl, have)
	}
	same := func(kind string, json []m, decl []declared) {
		if len(json) != len(decl) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(json), len(decl))
			return
		}
		for i := range decl {
			if json[i].Name != decl[i].name || json[i].Unit != decl[i].unit {
				t.Errorf("%s #%d: BENCHMARK.json %s [%s], benchmark %s [%s]", kind, i, json[i].Name, json[i].Unit, decl[i].name, decl[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// Every workload, shrunk, runs clean in both modes and reports exactly the
// declared metrics on its last line.
func TestWorkloadsSmall(t *testing.T) {
	sim := simDefaults
	sim.nodes, sim.edges, sim.colorNodes, sim.colorEdges = 20000, 60000, 5000, 15000
	sim.tailLo, sim.tailHi, sim.tailOdds, sim.colorLo = 20, 80, 256, 10
	sweep := sweepDefaults
	sweep.grids = []sweepGrid{
		{algo: "det", nu: 64, nv: 256, d: 20, trials: 4, shadowRuns: 1},
		{algo: "rand", nu: 2000, nv: 8000, d: 16, trials: 2, shadowRuns: 1},
	}
	sweep.setupReps = 1
	serve := serveDefaults
	serve.setupReps = 1
	serve.ladder = []float64{50, 100}
	runs := map[string]func(config, *result) error{
		"sim-1m":       func(c config, r *result) error { return simWorkload(c, r, sim) },
		"sweep":        func(c config, r *result) error { return sweepWorkload(c, r, sweep) },
		"wsplitd-open": func(c config, r *result) error { return serveWorkload(c, r, serve) },
	}
	for name, run := range runs {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			cfg := config{seed: 5, seconds: 0.5, trace: traced, tmpDir: t.TempDir(), out: &out}
			res := execute(run, cfg)
			if !res.correct() {
				t.Fatalf("%s traced=%t failed: %v\n%s", name, traced, res.failures, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct bool
				Metrics map[string]metric
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not the result: %v", name, err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(last.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics, want %d", name, traced, len(last.Metrics), len(want))
			}
			for _, d := range want {
				if _, ok := last.Metrics[d.name]; !ok {
					t.Errorf("%s traced=%t: metric %s missing", name, traced, d.name)
				}
			}
		}
	}
}
