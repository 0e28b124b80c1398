package experiments

// Grid-level run-control coverage: grid cancellation skips and stops cells,
// TrialTimeout bounds an attempt with local.ErrDeadline, and the retry
// policy re-runs transient failures only.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/prob"
)

func tinyGraphSpec() GraphSpec {
	return GraphSpec{Name: "tiny", Build: func(src *prob.Source) (*graph.Bipartite, error) {
		return graph.SubdividedStar(8)
	}, Fixed: true}
}

func trivialResult() *core.Result {
	return &core.Result{Colors: []int{0}}
}

// TestGridCancelled pins grid-level cancellation: with a fired Control no
// cell's solver runs and every cell reports the cancellation error.
func TestGridCancelled(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var solves atomic.Int64
	g := Grid{
		Graphs: []GraphSpec{tinyGraphSpec()},
		Algos: []AlgoSpec{{Name: "count", Solve: func(b *graph.Bipartite, src *prob.Source, eng local.Engine) (*core.Result, error) {
			solves.Add(1)
			return trivialResult(), nil
		}}},
		Seeds:   []uint64{1, 2, 3},
		Control: &local.RunControl{Ctx: ctx},
	}
	for _, tr := range g.Run() {
		if !strings.Contains(tr.Err, local.ErrCancelled.Error()) {
			t.Fatalf("cell err = %q, want cancellation", tr.Err)
		}
	}
	if solves.Load() != 0 {
		t.Fatalf("%d solves ran under a fired control", solves.Load())
	}
}

// TestGridTrialTimeout pins the per-attempt deadline: a solver whose LOCAL
// phase never converges is stopped by TrialTimeout with local.ErrDeadline,
// and the expiry counts as transient so Retries applies.
func TestGridTrialTimeout(t *testing.T) {
	t.Parallel()
	var attempts atomic.Int64
	spin := AlgoSpec{Name: "spin", Solve: func(b *graph.Bipartite, src *prob.Source, eng local.Engine) (*core.Result, error) {
		attempts.Add(1)
		topo := local.NewTopology(b.AsGraph())
		// Never done: only the attempt deadline can end this run.
		_, err := eng.Run(topo, func(v local.View) local.Node {
			return local.WordProgram(local.WordFunc(func(int, []local.Word, []local.Word) bool { return false }))
		}, local.Options{Source: src, MaxRounds: 1 << 30})
		if err != nil {
			return nil, fmt.Errorf("spin: %w", err)
		}
		return trivialResult(), nil
	}}
	g := Grid{
		Graphs:       []GraphSpec{tinyGraphSpec()},
		Algos:        []AlgoSpec{spin},
		Seeds:        []uint64{1},
		TrialTimeout: 20e6, // 20ms
		Retries:      2,
	}
	res := g.Run()
	if len(res) != 1 {
		t.Fatalf("got %d cells", len(res))
	}
	if !strings.Contains(res[0].Err, local.ErrDeadline.Error()) {
		t.Fatalf("cell err = %q, want deadline expiry", res[0].Err)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("solver ran %d times, want 1 attempt + 2 retries", got)
	}
	if res[0].Retried != 2 {
		t.Fatalf("Retried = %d, want 2", res[0].Retried)
	}
}

// TestGridRetryTransient pins the retry classification: a panic is
// transient (the cell succeeds on a later attempt), a plain solver error is
// not (one attempt, no retries).
func TestGridRetryTransient(t *testing.T) {
	t.Parallel()
	var calls atomic.Int64
	flaky := AlgoSpec{Name: "flaky", Solve: func(b *graph.Bipartite, src *prob.Source, eng local.Engine) (*core.Result, error) {
		topo := local.NewTopology(b.AsGraph())
		boom := calls.Add(1) <= 2
		_, err := eng.Run(topo, func(v local.View) local.Node {
			return local.WordProgram(local.WordFunc(func(int, []local.Word, []local.Word) bool {
				if boom {
					panic("flaky bomb")
				}
				return true
			}))
		}, local.Options{Source: src, MaxRounds: 8})
		if err != nil {
			return nil, fmt.Errorf("flaky: %w", err)
		}
		return &core.Result{Colors: make([]int, b.NV())}, nil
	}}
	g := Grid{
		Graphs:  []GraphSpec{tinyGraphSpec()},
		Algos:   []AlgoSpec{flaky},
		Seeds:   []uint64{1},
		Retries: 3,
	}
	res := g.Run()
	if res[0].Err != "" {
		t.Fatalf("cell err = %q, want recovery after transient panics", res[0].Err)
	}
	if res[0].Retried != 2 {
		t.Fatalf("Retried = %d, want 2", res[0].Retried)
	}

	var hard atomic.Int64
	g.Algos = []AlgoSpec{{Name: "hard", Solve: func(b *graph.Bipartite, src *prob.Source, eng local.Engine) (*core.Result, error) {
		hard.Add(1)
		return nil, errors.New("deterministic failure")
	}}}
	res = g.Run()
	if res[0].Err == "" || hard.Load() != 1 {
		t.Fatalf("deterministic failure was retried: err=%q solves=%d", res[0].Err, hard.Load())
	}
	if res[0].Retried != 0 {
		t.Fatalf("Retried = %d, want 0", res[0].Retried)
	}
}

// TestConfigControl pins Config-level plumbing: a fired Control makes
// RunParallel skip experiments and cfg.engine() wraps cancellation into
// every LOCAL phase.
func TestConfigControl(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Config{Quick: true, Overlay: local.Overlay{Control: &local.RunControl{Ctx: ctx}}}
	for _, r := range RunParallel([]string{"E1", "E2"}, cfg, 2) {
		if !errors.Is(r.Err, local.ErrCancelled) {
			t.Fatalf("%s: err = %v, want ErrCancelled", r.ID, r.Err)
		}
	}
	// The wrapped engine refuses to run rounds once the control fired.
	b, berr := graph.SubdividedStar(4)
	if berr != nil {
		t.Fatal(berr)
	}
	topo := local.NewTopology(b.AsGraph())
	_, err := cfg.engine().Run(topo, func(v local.View) local.Node {
		return local.WordProgram(local.WordFunc(func(int, []local.Word, []local.Word) bool { return true }))
	}, local.Options{Source: prob.NewSource(1), MaxRounds: 4})
	if !errors.Is(err, local.ErrCancelled) {
		t.Fatalf("cfg.engine() err = %v, want ErrCancelled", err)
	}
}

// TestEFRejectsFaultOverlay pins that EF refuses a config whose overlay
// carries an active fault plan: it sweeps its own grid, and a second plan
// would silently replace every cell's.
func TestEFRejectsFaultOverlay(t *testing.T) {
	t.Parallel()
	cfg := Config{Quick: true, Overlay: local.Overlay{Faults: local.FaultPlan{Seed: 3, Drop: 0.1}}}
	if _, err := EF(cfg); err == nil || !strings.Contains(err.Error(), "own fault grid") {
		t.Fatalf("EF with an active fault overlay: err = %v, want the own-grid rejection", err)
	}
}
