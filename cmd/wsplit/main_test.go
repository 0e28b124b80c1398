package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/prob"
)

// TestBuildInstanceFromFile pins that the -graph path routes through the
// graph package's format dispatcher: instance text and binary snapshots
// both load, and malformed files surface the parser's descriptive error.
func TestBuildInstanceFromFile(t *testing.T) {
	dir := t.TempDir()
	src := prob.NewSource(1)

	path := filepath.Join(dir, "inst.txt")
	if err := os.WriteFile(path, []byte("2 3\n0 0\n0 1\n1 1\n1 2\n\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := buildInstance("leftregular", path, 64, 128, 16, src)
	if err != nil {
		t.Fatal(err)
	}
	if b.NU() != 2 || b.NV() != 3 || b.M() != 4 {
		t.Fatalf("parsed sizes wrong: NU=%d NV=%d M=%d", b.NU(), b.NV(), b.M())
	}

	snapPath := filepath.Join(dir, "inst.csr")
	f, err := os.Create(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.ExportSnapshot(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if b, err = buildInstance("", snapPath, 0, 0, 0, src); err != nil || b.NU() != 2 || b.NV() != 3 {
		t.Fatalf("snapshot load through -graph failed: %v", err)
	}

	for name, content := range map[string]string{
		"empty.txt":     "",
		"badhdr.txt":    "x y\n",
		"badedge.txt":   "2 2\n0 z\n",
		"oorange.txt":   "2 2\n0 5\n",
		"truncated.csr": "CSRSNAP1\x01\x02\x03",
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := buildInstance("", path, 0, 0, 0, src); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
	if _, err := buildInstance("", filepath.Join(dir, "missing.txt"), 0, 0, 0, src); err == nil {
		t.Error("missing file should error")
	}
}

func TestBuildInstanceGenerators(t *testing.T) {
	src := prob.NewSource(1)
	for _, gen := range []string{"leftregular", "biregular", "girth10"} {
		b, err := buildInstance(gen, "", 16, 64, 8, src)
		if err != nil {
			t.Fatalf("%s: %v", gen, err)
		}
		if b.NU() == 0 || b.NV() == 0 {
			t.Fatalf("%s: empty instance", gen)
		}
	}
	if b, err := buildInstance("tree", "", 0, 0, 4, src); err != nil || b.MinDegU() < 4 {
		t.Errorf("tree generator wrong: %v", err)
	}
	if b, err := buildInstance("star", "", 0, 0, 8, src); err != nil || b.Rank() != 2 {
		t.Errorf("star generator wrong: %v", err)
	}
	if _, err := buildInstance("nope", "", 1, 1, 1, src); err == nil {
		t.Error("unknown generator should error")
	}
}

func TestSolveDispatch(t *testing.T) {
	src := prob.NewSource(2)
	b, err := buildInstance("leftregular", "", 40, 80, 16, src)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []local.Engine{local.SequentialEngine{}, local.WorkerPoolEngine{}} {
		for _, algo := range []string{"det", "trivial", "ref"} {
			res, err := solve(algo, b, src.Fork(1), eng)
			if err != nil {
				t.Fatalf("%s: %v", algo, err)
			}
			if err := check.WeakSplit(b, res.Colors, 0); err != nil {
				t.Fatalf("%s: invalid output: %v", algo, err)
			}
		}
	}
	if _, err := solve("nope", b, src, nil); err == nil {
		t.Error("unknown algorithm should error")
	}
}

func TestSolveEngineIndependence(t *testing.T) {
	src := prob.NewSource(5)
	b, err := buildInstance("leftregular", "", 32, 96, 16, src)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := solve("det", b, src.Fork(1), local.SequentialEngine{})
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []local.Engine{local.WorkerPoolEngine{Workers: 3}} {
		res, err := solve("det", b, src.Fork(1), eng)
		if err != nil {
			t.Fatalf("%T: %v", eng, err)
		}
		if res.Trace.Rounds() != ref.Trace.Rounds() {
			t.Errorf("%T: rounds %d != %d", eng, res.Trace.Rounds(), ref.Trace.Rounds())
		}
		for v := range res.Colors {
			if res.Colors[v] != ref.Colors[v] {
				t.Fatalf("%T: color differs at variable %d", eng, v)
			}
		}
	}
}

func TestValidateFlags(t *testing.T) {
	set := func(names ...string) map[string]bool {
		m := map[string]bool{}
		for _, n := range names {
			m[n] = true
		}
		return m
	}
	cases := []struct {
		name    string
		set     map[string]bool
		sweep   bool
		engine  string
		gen, in string
		batch   bool
		plane   local.Plane
		faults  local.FaultPlan
		wantErr bool
	}{
		{"defaults", set(), false, "seq", "leftregular", "", false, local.PlaneAuto, local.FaultPlan{}, false},
		{"workers+seq+single", set("workers"), false, "seq", "leftregular", "", false, local.PlaneAuto, local.FaultPlan{}, true},
		{"workers+pool+single", set("workers"), false, "pool", "leftregular", "", false, local.PlaneAuto, local.FaultPlan{}, false},
		{"workers+batch-engine+single", set("workers"), false, "batch", "leftregular", "", false, local.PlaneAuto, local.FaultPlan{}, false},
		{"workers+seq+sweep", set("workers"), true, "seq", "leftregular", "", false, local.PlaneAuto, local.FaultPlan{}, false},
		{"batch+single", set("batch"), false, "seq", "star", "", true, local.PlaneAuto, local.FaultPlan{}, true},
		{"batch+sweep+random-gen", set("batch"), true, "seq", "leftregular", "", true, local.PlaneAuto, local.FaultPlan{}, true},
		{"batch+sweep+star", set("batch"), true, "seq", "star", "", true, local.PlaneAuto, local.FaultPlan{}, false},
		{"batch+sweep+tree", set("batch"), true, "seq", "tree", "", true, local.PlaneAuto, local.FaultPlan{}, false},
		{"batch+sweep+file", set("batch"), true, "seq", "leftregular", "inst.txt", true, local.PlaneAuto, local.FaultPlan{}, false},
		{"plane+single", set("plane"), false, "seq", "leftregular", "", false, local.PlaneBit, local.FaultPlan{}, false},
		{"plane+batch", set("plane", "batch"), true, "seq", "star", "", true, local.PlaneWord, local.FaultPlan{}, true},
		{"graph-alone", set("graph"), false, "seq", "leftregular", "inst.txt", false, local.PlaneAuto, local.FaultPlan{}, false},
		{"graph+gen", set("graph", "gen"), false, "seq", "tree", "inst.txt", false, local.PlaneAuto, local.FaultPlan{}, true},
		{"graph+nu", set("graph", "nu"), false, "seq", "leftregular", "inst.txt", false, local.PlaneAuto, local.FaultPlan{}, true},
		{"graph+nv", set("in", "nv"), false, "seq", "leftregular", "inst.txt", false, local.PlaneAuto, local.FaultPlan{}, true},
		{"graph+d", set("graph", "d"), false, "seq", "leftregular", "inst.txt", false, local.PlaneAuto, local.FaultPlan{}, true},
		{"gen-knobs-no-graph", set("gen", "nu", "nv", "d"), false, "seq", "biregular", "", false, local.PlaneAuto, local.FaultPlan{}, false},
		{"faults+single", set("drop"), false, "seq", "leftregular", "", false, local.PlaneAuto, local.FaultPlan{Seed: 1, Drop: 0.1}, false},
		{"faults+sweep", set("crash"), true, "seq", "leftregular", "", false, local.PlaneAuto, local.FaultPlan{Seed: 1, Crash: 0.01}, false},
		{"faults+batch", set("drop", "batch"), true, "seq", "star", "", true, local.PlaneAuto, local.FaultPlan{Seed: 1, Drop: 0.1}, true},
		{"delay-without-drop", set("delay"), false, "seq", "leftregular", "", false, local.PlaneAuto, local.FaultPlan{Seed: 1, Delay: 2}, true},
		{"faultseed-without-plan", set("faultseed"), false, "seq", "leftregular", "", false, local.PlaneAuto, local.FaultPlan{Seed: 9}, true},
		{"drop-out-of-range", set("drop"), false, "seq", "leftregular", "", false, local.PlaneAuto, local.FaultPlan{Seed: 1, Drop: 1.5}, true},
	}
	for _, tc := range cases {
		err := validateFlags(tc.set, tc.sweep, tc.engine, tc.gen, tc.in, tc.batch, tc.plane, tc.faults)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: got err %v, wantErr=%t", tc.name, err, tc.wantErr)
		}
	}
}

// TestRemovedEngineFailsLoudly runs wsplit (this test binary, re-executed
// into run) with -engine goroutine: the removed engine must be a usage
// error (exit 2) whose message says it was removed and names the engines
// that remain.
func TestRemovedEngineFailsLoudly(t *testing.T) {
	if os.Getenv("WSPLIT_TEST_RUN") == "1" {
		os.Args = []string{"wsplit", "-engine", "goroutine"}
		os.Exit(run())
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestRemovedEngineFailsLoudly$")
	cmd.Env = append(os.Environ(), "WSPLIT_TEST_RUN=1")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("-engine goroutine: err = %v, want exit status 2; output:\n%s", err, out)
	}
	for _, want := range []string{`engine "goroutine" was removed`, "have seq, pool, batch"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("-engine goroutine: output %q lacks %q", out, want)
		}
	}
}

// TestBatchedSweepMatchesUnbatched runs the sweep grid exactly as the
// -batch CLI path does and pins it against the unbatched sweep.
func TestBatchedSweepMatchesUnbatched(t *testing.T) {
	algos := []string{"trivial", "sixr"}
	seeds := []uint64{1, 2, 3}
	build := func(batch bool) []experiments.TrialResult {
		var specs []experiments.AlgoSpec
		for _, name := range algos {
			spec, ok := experiments.AlgoSpecFor(name)
			if !ok {
				t.Fatalf("unknown algorithm %q", name)
			}
			specs = append(specs, spec)
		}
		return experiments.Grid{
			Graphs: []experiments.GraphSpec{{
				Name:  "tree",
				Build: func(src *prob.Source) (*graph.Bipartite, error) { return buildInstance("tree", "", 0, 0, 12, src) },
				Fixed: fixedInstance("tree", ""),
			}},
			Algos:  specs,
			Seeds:  seeds,
			Engine: local.SequentialEngine{},
			Batch:  batch,
		}.Run()
	}
	ref := build(false)
	got := build(true)
	if len(got) != len(ref) || len(ref) != len(algos)*len(seeds) {
		t.Fatalf("trial counts differ: %d vs %d", len(got), len(ref))
	}
	for i := range got {
		g, r := got[i], ref[i]
		g.Elapsed, r.Elapsed = 0, 0
		if g != r {
			t.Fatalf("batched sweep trial %d differs:\n got %+v\nwant %+v", i, g, r)
		}
	}
}

func TestKnownAlgo(t *testing.T) {
	for _, a := range []string{"det", "rand", "sixr", "trivial", "ref", "hg-det", "hg-rand"} {
		if !knownAlgo(a) {
			t.Errorf("%s should be known", a)
		}
	}
	if knownAlgo("nope") || knownAlgo("") {
		t.Error("unknown algorithms must be rejected before the sweep starts")
	}
}
