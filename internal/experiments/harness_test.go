package experiments

import (
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/prob"
)

func TestForEachIndexedOrderAndCoverage(t *testing.T) {
	t.Parallel()
	for _, workers := range []int{0, 1, 3, 64} {
		got := forEachIndexed(workers, 100, func(i int) int { return i * i })
		if len(got) != 100 {
			t.Fatalf("workers=%d: got %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result %d out of order: %d", workers, i, v)
			}
		}
	}
	if got := forEachIndexed[int](4, 0, func(int) int { return 1 }); got != nil {
		t.Errorf("n=0 should yield nil, got %v", got)
	}
}

func testGrid(workers int, eng local.Engine) Grid {
	return Grid{
		Graphs: []GraphSpec{
			{Name: "leftregular", Build: func(src *prob.Source) (*graph.Bipartite, error) {
				return graph.RandomBipartiteLeftRegular(24, 96, 16, src.Rand())
			}},
			{Name: "biregular", Build: func(src *prob.Source) (*graph.Bipartite, error) {
				return graph.RandomBipartiteBiregular(16, 64, 20, src.Rand())
			}},
		},
		Algos: []AlgoSpec{
			{Name: "det", Solve: func(b *graph.Bipartite, src *prob.Source, eng local.Engine) (*core.Result, error) {
				return core.DeterministicSplit(b, core.DeterministicOptions{Engine: eng})
			}},
			{Name: "trivial", Solve: func(b *graph.Bipartite, src *prob.Source, eng local.Engine) (*core.Result, error) {
				return core.ZeroRoundRandomRetry(b, src, 16)
			}},
		},
		Seeds:   []uint64{1, 2, 3},
		Engine:  eng,
		Workers: workers,
	}
}

// TestGridDeterministicAcrossWorkersAndEngines is the harness-level
// determinism check: the full result set must be identical whatever the
// worker count and whatever the engine.
func TestGridDeterministicAcrossWorkersAndEngines(t *testing.T) {
	t.Parallel()
	ref := testGrid(1, local.SequentialEngine{}).Run()
	if len(ref) != 12 {
		t.Fatalf("got %d trials, want 12", len(ref))
	}
	for i, tr := range ref {
		if tr.Err != "" {
			t.Fatalf("trial %d failed: %s", i, tr.Err)
		}
		if !tr.Valid {
			t.Fatalf("trial %d produced an invalid splitting: %+v", i, tr)
		}
	}
	// Order is graph-major, then algorithm, then seed.
	if ref[0].Graph != "leftregular" || ref[0].Algo != "det" || ref[0].Seed != 1 {
		t.Errorf("first trial out of order: %+v", ref[0])
	}
	if ref[11].Graph != "biregular" || ref[11].Algo != "trivial" || ref[11].Seed != 3 {
		t.Errorf("last trial out of order: %+v", ref[11])
	}
	for _, alt := range []Grid{
		testGrid(0, local.SequentialEngine{}),
		testGrid(5, local.SequentialEngine{}),
		testGrid(3, local.WorkerPoolEngine{}),
	} {
		got := alt.Run()
		if len(got) != len(ref) {
			t.Fatalf("trial count changed: %d vs %d", len(got), len(ref))
		}
		for i := range got {
			g, r := got[i], ref[i]
			g.Elapsed, r.Elapsed = 0, 0
			if g != r {
				t.Fatalf("workers=%d engine=%T: trial %d differs:\n got %+v\nwant %+v",
					alt.Workers, alt.Engine, i, g, r)
			}
		}
	}
}

// batchableGrid mixes a Fixed graph carrying a SolveBatch algorithm (the
// batched multi-seed path), the same algorithm without SolveBatch (shared
// instance, per-cell solve), and a seed-dependent graph (per-cell rebuild
// fallback) — every routing the batched Grid supports.
func batchableGrid(workers int, batch bool) Grid {
	trivial := func(b *graph.Bipartite, src *prob.Source, eng local.Engine) (*core.Result, error) {
		return core.ZeroRoundRandomRetry(b, src, 16)
	}
	return Grid{
		Graphs: []GraphSpec{
			{Name: "star", Fixed: true, Build: func(src *prob.Source) (*graph.Bipartite, error) {
				return graph.SubdividedStar(24)
			}},
			{Name: "leftregular", Build: func(src *prob.Source) (*graph.Bipartite, error) {
				return graph.RandomBipartiteLeftRegular(24, 96, 16, src.Rand())
			}},
		},
		Algos: []AlgoSpec{
			{Name: "trivial-batched", Solve: trivial,
				SolveBatch: func(b *graph.Bipartite, srcs []*prob.Source, workers int, ctl *local.RunControl) ([]*core.Result, []error) {
					return core.ZeroRoundRandomRetryBatch(b, srcs, 16, workers, ctl)
				}},
			{Name: "trivial", Solve: trivial},
		},
		Seeds:   []uint64{1, 2, 3, 4, 5},
		Workers: workers,
		Batch:   batch,
	}
}

// TestGridBatchMatchesUnbatched is the harness-level bit-identity check for
// the batched trial path: every cell of the batched run must equal its
// unbatched twin (Elapsed aside), across worker counts.
func TestGridBatchMatchesUnbatched(t *testing.T) {
	t.Parallel()
	ref := batchableGrid(1, false).Run()
	if len(ref) != 20 {
		t.Fatalf("got %d trials, want 20", len(ref))
	}
	for i, tr := range ref {
		if tr.Err != "" && tr.Graph != "star" {
			t.Fatalf("trial %d failed: %s", i, tr.Err)
		}
	}
	for _, workers := range []int{0, 1, 3} {
		got := batchableGrid(workers, true).Run()
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: trial count changed: %d vs %d", workers, len(got), len(ref))
		}
		for i := range got {
			g, r := got[i], ref[i]
			g.Elapsed, r.Elapsed = 0, 0
			if g != r {
				t.Fatalf("workers=%d: batched trial %d differs:\n got %+v\nwant %+v", workers, i, g, r)
			}
		}
	}
}

// TestE14BatchAblation runs the engine ablation with Config.Batch: the
// batched-sweep agreement row must appear, and agreement must hold.
func TestE14BatchAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("E14's splitter ablation dominates; the batch path is covered by TestGridBatchMatchesUnbatched in short mode")
	}
	t.Parallel()
	tab, err := E14(Config{Quick: true, Seed: 2, Batch: true})
	if err != nil {
		t.Fatal(err)
	}
	var agreeRow bool
	for _, row := range tab.Rows {
		if row[0] == "batch-sweep" && row[1] == "agreement" {
			agreeRow = true
			if row[2] != "yes" {
				t.Errorf("batched sweep disagreed with per-seed runs: %v", row)
			}
		}
		if row[0] == "engine" && row[1] == "agreement" && row[2] != "yes" {
			t.Errorf("engine ablation disagreed: %v", row)
		}
	}
	if !agreeRow {
		t.Errorf("batch-sweep agreement row missing:\n%s", tab.Format())
	}
	if experiments := BatchCapable("E14"); !experiments {
		t.Error("E14 must register as batch-capable")
	}
}

// TestGridEmptySeeds pins that a grid with no cells does no work on either
// path: no results, and — the regression — no eager build of Fixed graphs
// under Batch.
func TestGridEmptySeeds(t *testing.T) {
	t.Parallel()
	for _, batch := range []bool{false, true} {
		var builds atomic.Int64
		grid := Grid{
			Graphs: []GraphSpec{
				{Name: "counted", Fixed: true, Build: func(src *prob.Source) (*graph.Bipartite, error) {
					builds.Add(1)
					return graph.SubdividedStar(8)
				}},
			},
			Algos: []AlgoSpec{
				{Name: "trivial", Solve: func(b *graph.Bipartite, src *prob.Source, eng local.Engine) (*core.Result, error) {
					return core.ZeroRoundRandomRetry(b, src, 16)
				}},
			},
			Seeds: nil,
			Batch: batch,
		}
		if got := grid.Run(); len(got) != 0 {
			t.Errorf("batch=%t: empty-seed grid returned %d results", batch, len(got))
		}
		if n := builds.Load(); n != 0 {
			t.Errorf("batch=%t: empty-seed grid built %d instances, want 0", batch, n)
		}
	}
}

func TestRunParallelOrderAndErrors(t *testing.T) {
	t.Parallel()
	ids := []string{"E5", "nope", "E13"}
	results := RunParallel(ids, Config{Quick: true, Seed: 3}, 2)
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	for i, id := range ids {
		if results[i].ID != id {
			t.Errorf("result %d is %s, want %s (order must match input)", i, results[i].ID, id)
		}
	}
	if results[0].Err != nil || results[0].Table == nil {
		t.Errorf("E5 should succeed: %v", results[0].Err)
	}
	if results[1].Err == nil {
		t.Error("unknown id should produce an error entry")
	}
	if results[2].Err != nil || results[2].Table == nil {
		t.Errorf("E13 should succeed: %v", results[2].Err)
	}
}

// TestRunParallelMatchesSerial asserts that concurrency does not change any
// experiment table: same seeds, same rows.
func TestRunParallelMatchesSerial(t *testing.T) {
	t.Parallel()
	ids := []string{"E4", "E5", "E13"}
	cfg := Config{Quick: true, Seed: 11}
	serial := RunParallel(ids, cfg, 1)
	concurrent := RunParallel(ids, cfg, 3)
	for i := range ids {
		a, b := serial[i].Table, concurrent[i].Table
		if serial[i].Err != nil || concurrent[i].Err != nil {
			t.Fatalf("%s failed: %v / %v", ids[i], serial[i].Err, concurrent[i].Err)
		}
		if a.Format() != b.Format() {
			t.Errorf("%s table changed under concurrency:\n%s\nvs\n%s", ids[i], a.Format(), b.Format())
		}
	}
}

func TestTableCSVAndJSON(t *testing.T) {
	t.Parallel()
	tab := &Table{
		ID: "EX", Title: "title", PaperRef: "ref", Claim: "claim",
		Header: []string{"a", "b"},
	}
	tab.AddRow("1", "va,lue")
	tab.Note("note")
	csvOut := tab.CSV()
	if !strings.HasPrefix(csvOut, "a,b\n") || !strings.Contains(csvOut, `"va,lue"`) {
		t.Errorf("CSV malformed:\n%s", csvOut)
	}
	jsonOut, err := tab.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		ID   string     `json:"id"`
		Rows [][]string `json:"rows"`
	}
	if err := json.Unmarshal(jsonOut, &decoded); err != nil {
		t.Fatalf("JSON invalid: %v", err)
	}
	if decoded.ID != "EX" || len(decoded.Rows) != 1 || decoded.Rows[0][1] != "va,lue" {
		t.Errorf("JSON round-trip wrong: %+v", decoded)
	}
}

func TestTrialsCSVAndJSON(t *testing.T) {
	t.Parallel()
	trials := []TrialResult{
		{Graph: "g", Algo: "a", Seed: 9, Rounds: 3, Red: 1, Blue: 2, Valid: true},
		{Graph: "g", Algo: "b", Seed: 9, Err: "solve: boom"},
	}
	csvOut := TrialsCSV(trials)
	lines := strings.Split(strings.TrimSpace(csvOut), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "graph,algo,seed") {
		t.Errorf("CSV malformed:\n%s", csvOut)
	}
	jsonOut, err := TrialsJSON(trials)
	if err != nil {
		t.Fatal(err)
	}
	var decoded []TrialResult
	if err := json.Unmarshal(jsonOut, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 2 || decoded[0].Rounds != 3 || decoded[1].Err != "solve: boom" {
		t.Errorf("JSON round-trip wrong: %+v", decoded)
	}
}
