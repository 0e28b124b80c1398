package experiments

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/prob"
)

// This file is the parallel experiment harness: a bounded worker pool that
// fans independent work items (whole experiments, or (graph, algorithm,
// seed) trial cells) across goroutines while keeping result order — and
// therefore every rendered table — deterministic. Each experiment draws its
// randomness from its own seed-derived Source, so concurrency cannot change
// any result, only wall-clock time.

// forEachIndexed runs fn(i) for every i in [0, n) on at most `workers`
// goroutines and returns the results in index order. workers <= 0 means
// GOMAXPROCS.
func forEachIndexed[T any](workers, n int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return out
}

// RunResult is the outcome of one experiment inside a parallel run.
type RunResult struct {
	ID      string
	Table   *Table
	Err     error
	Elapsed time.Duration
}

// RunParallel executes the named experiments concurrently on at most
// `workers` goroutines and returns the results in the order of ids. Unknown
// ids produce an error entry rather than a panic. When cfg.Overlay.Control
// fires, experiments not yet started return its cancellation error
// immediately and running ones observe it inside their LOCAL phases (via
// cfg.engine()).
func RunParallel(ids []string, cfg Config, workers int) []RunResult {
	registry := All()
	return forEachIndexed(workers, len(ids), func(i int) RunResult {
		id := ids[i]
		runner, ok := registry[id]
		if !ok {
			return RunResult{ID: id, Err: fmt.Errorf("unknown experiment %q", id)}
		}
		if cerr := cfg.Overlay.Control.Err(); cerr != nil {
			return RunResult{ID: id, Err: cerr}
		}
		start := time.Now()
		table, err := runner(cfg)
		return RunResult{ID: id, Table: table, Err: err, Elapsed: time.Since(start)}
	})
}

// GraphSpec names one instance generator of a trial grid. Build receives a
// Source derived from the trial seed, so the same (spec, seed) pair always
// yields the same instance.
type GraphSpec struct {
	Name  string
	Build func(src *prob.Source) (*graph.Bipartite, error)
	// Fixed declares Build seed-independent: every seed yields the same
	// instance (file-loaded and deterministic generators). Only Fixed specs
	// are eligible for the batched path, which builds the instance once and
	// hands it to the trials of all seeds concurrently — solvers must treat
	// it as read-only.
	Fixed bool
}

// AlgoSpec names one weak-splitting algorithm of a trial grid. Solve
// receives the instance, a trial-seed-derived Source, and the engine that
// should run any LOCAL simulation phases.
type AlgoSpec struct {
	Name  string
	Solve func(b *graph.Bipartite, src *prob.Source, eng local.Engine) (*core.Result, error)
	// SolveBatch, when non-nil, solves all seeds of one shared instance in a
	// single batched pass (one result and one error slot per source, in
	// order). It must be bit-identical per seed to Solve with the same
	// Source; the batched path uses it only on Fixed graphs. workers sizes
	// any internal worker pool (<= 0 means GOMAXPROCS). ctl, when non-nil,
	// must make the batched pass cancellable (typically by forwarding it to
	// local.BatchOptions.Control); seeds it retires report its error.
	SolveBatch func(b *graph.Bipartite, srcs []*prob.Source, workers int, ctl *local.RunControl) ([]*core.Result, []error)
}

// TrialResult is one cell of a trial grid.
type TrialResult struct {
	Graph   string        `json:"graph"`
	Algo    string        `json:"algo"`
	Seed    uint64        `json:"seed"`
	Rounds  int           `json:"rounds"`
	Red     int           `json:"red"`
	Blue    int           `json:"blue"`
	Valid   bool          `json:"valid"`
	Err     string        `json:"err,omitempty"`
	Elapsed time.Duration `json:"elapsed_ns"`
	// Retried counts the extra attempts this cell consumed under
	// Grid.Retries; 0 means the first attempt's outcome stands.
	Retried int `json:"retried,omitempty"`
}

// Grid is a (graph, algorithm, seed) product of weak-splitting trials.
type Grid struct {
	Graphs []GraphSpec
	Algos  []AlgoSpec
	Seeds  []uint64
	// Engine runs the LOCAL phases of every trial (nil = sequential).
	Engine local.Engine
	// Workers bounds the trial concurrency (<= 0 = GOMAXPROCS).
	Workers int
	// Batch routes the Fixed graphs of the grid through the batched trial
	// path: each Fixed instance is built once and shared (graphs are
	// immutable) by all of its (algorithm, seed) cells, and algorithms that
	// provide SolveBatch run all seeds of an instance in one batched pass.
	// Cell results are bit-identical to the unbatched path; only wall-clock
	// time (and the per-trial Elapsed attribution, which becomes the batched
	// call's even share) changes. Non-Fixed graphs fall back to per-cell
	// rebuilds even when Batch is set.
	Batch bool
	// Control cancels the grid as a whole: cells not yet started return its
	// error without running, running cells observe it at their next LOCAL
	// round boundary, and a fired grid control is never retried. nil runs
	// uncontrolled; a control that never fires perturbs no result.
	Control *local.RunControl
	// TrialTimeout bounds each cell attempt's wall-clock time (0 = none).
	// An attempt over budget fails with local.ErrDeadline — a transient
	// failure, so Retries applies.
	TrialTimeout time.Duration
	// Retries re-runs a cell whose failure is transient — a deadline expiry
	// or a node-program panic — up to this many extra attempts (0 = fail
	// fast). Deterministic failures (build errors, solver rejections,
	// invalid splittings) are never retried, and neither is a fired grid
	// Control.
	Retries int
}

// Run executes every (graph, algorithm, seed) cell of the grid across the
// worker pool. Results are returned graph-major, then algorithm, then seed —
// the same deterministic order regardless of Workers and Batch.
//
// Without Batch, each cell rebuilds its instance from (spec, seed) rather
// than sharing one build across the algorithms of a seed: trials stay fully
// independent, so the pool never hands two concurrent solvers the same
// *Bipartite even if a solver mutates its input. The rebuild cost is
// deliberate; Batch trades that isolation for amortization on graphs that
// declare themselves Fixed.
func (g Grid) Run() []TrialResult {
	eng := g.Engine
	if eng == nil {
		eng = local.SequentialEngine{}
	}
	n := len(g.Graphs) * len(g.Algos) * len(g.Seeds)
	cell := func(i int) (GraphSpec, AlgoSpec, uint64) {
		gi := i / (len(g.Algos) * len(g.Seeds))
		ai := i / len(g.Seeds) % len(g.Algos)
		si := i % len(g.Seeds)
		return g.Graphs[gi], g.Algos[ai], g.Seeds[si]
	}
	if !g.Batch {
		return forEachIndexed(g.Workers, n, func(i int) TrialResult {
			gs, as, seed := cell(i)
			return g.runCell(gs, as, seed, eng)
		})
	}
	if n == 0 {
		// No cells: match the unbatched path exactly and in particular do not
		// build any Fixed instance — an empty Seeds slice used
		// to trigger eager builds seeded with a silently-substituted seed 0.
		return nil
	}

	// Batched path. Build every Fixed instance once up front, then run the
	// SolveBatch groups, then fan the remaining cells over the worker pool
	// against the shared (immutable) instances.
	results := make([]TrialResult, n)
	type builtGraph struct {
		b   *graph.Bipartite
		err error
	}
	built := make([]*builtGraph, len(g.Graphs))
	for gi, gs := range g.Graphs {
		if !gs.Fixed {
			continue
		}
		bg := &builtGraph{}
		bg.b, bg.err = gs.Build(prob.NewSource(g.Seeds[0]))
		built[gi] = bg
	}
	var rest []int // flat cell indices not covered by a SolveBatch group
	for gi, gs := range g.Graphs {
		for ai, as := range g.Algos {
			base := (gi*len(g.Algos) + ai) * len(g.Seeds)
			if built[gi] == nil || as.SolveBatch == nil {
				for si := range g.Seeds {
					rest = append(rest, base+si)
				}
				continue
			}
			runBatchGroup(gs, as, g.Seeds, built[gi].b, built[gi].err, g.Workers, g.Control, results[base:base+len(g.Seeds)])
		}
	}
	forEachIndexed(g.Workers, len(rest), func(j int) struct{} {
		i := rest[j]
		gs, as, seed := cell(i)
		if bg := built[i/(len(g.Algos)*len(g.Seeds))]; bg != nil && bg.err != nil {
			results[i], _ = runTrialOn(gs, as, seed, eng, nil, bg.err)
		} else {
			// Rebuild per trial even though a shared Fixed instance exists:
			// Solve has no read-only contract (only SolveBatch does), so
			// handing the shared *Bipartite to concurrent Solve calls would
			// break the isolation the unbatched path documents. Fixed builds
			// are seed-independent, so the rebuilt instance is identical.
			results[i] = g.runCell(gs, as, seed, eng)
		}
		return struct{}{}
	})
	return results
}

// runBatchGroup executes all seeds of one (Fixed graph, SolveBatch
// algorithm) pair in a single batched call and fills the group's result
// slots. Elapsed is attributed as the batched call's even per-trial share.
func runBatchGroup(gs GraphSpec, as AlgoSpec, seeds []uint64, b *graph.Bipartite, buildErr error, workers int, ctl *local.RunControl, out []TrialResult) {
	if len(seeds) == 0 {
		return
	}
	for si, seed := range seeds {
		out[si] = TrialResult{Graph: gs.Name, Algo: as.Name, Seed: seed}
	}
	if buildErr != nil {
		for si := range out {
			out[si].Err = fmt.Sprintf("build: %v", buildErr)
		}
		return
	}
	start := time.Now()
	srcs := make([]*prob.Source, len(seeds))
	for si, seed := range seeds {
		srcs[si] = prob.NewSource(seed).Fork(1)
	}
	results, errs := as.SolveBatch(b, srcs, workers, ctl)
	share := time.Since(start) / time.Duration(len(seeds))
	for si := range seeds {
		out[si].Elapsed = share
		if errs[si] != nil {
			out[si].Err = fmt.Sprintf("solve: %v", errs[si])
			continue
		}
		fillTrialResult(&out[si], b, results[si])
	}
}

// runCell runs one (graph, algorithm, seed) cell under the grid's control,
// per-attempt timeout, and retry policy. A fired grid control ends the cell
// immediately — before the first attempt or instead of a retry — with the
// cancellation error; transient failures (deadline expiry, node-program
// panic) are re-attempted immediately, up to Retries times.
func (g Grid) runCell(gs GraphSpec, as AlgoSpec, seed uint64, eng local.Engine) TrialResult {
	for attempt := 0; ; attempt++ {
		if cerr := g.Control.Err(); cerr != nil {
			return TrialResult{Graph: gs.Name, Algo: as.Name, Seed: seed, Err: cerr.Error()}
		}
		attEng, release := g.attemptEngine(eng)
		tr, err := runTrial(gs, as, seed, attEng)
		release()
		tr.Retried = attempt
		if err == nil || attempt >= g.Retries || !transientTrialErr(err) || g.Control.Err() != nil {
			return tr
		}
	}
}

// transientTrialErr reports whether a cell failure is worth retrying: a
// deadline expiry (load-induced, the next attempt gets a fresh budget) or a
// node-program panic. Deterministic failures — build errors, solver
// rejections, invalid splittings — would only fail the same way again.
func transientTrialErr(err error) bool {
	var pe *local.PanicError
	return errors.Is(err, local.ErrDeadline) || errors.As(err, &pe)
}

// attemptEngine overlays the grid engine with one attempt's controls — the
// grid control, plus a fresh TrialTimeout — and returns a release func for
// the timeout's timer. With neither knob set the engine is returned
// untouched, keeping uncontrolled grids on the unwrapped hot path.
func (g Grid) attemptEngine(eng local.Engine) (local.Engine, func()) {
	release := func() {}
	if g.TrialTimeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), g.TrialTimeout)
		eng, release = local.Overlay{Control: &local.RunControl{Ctx: ctx}}.On(eng), cancel
	}
	// The grid control goes outermost, so a cancelled grid reports its
	// cancellation before an attempt's deadline.
	return local.Overlay{Control: g.Control}.On(eng), release
}

func runTrial(gs GraphSpec, as AlgoSpec, seed uint64, eng local.Engine) (TrialResult, error) {
	start := time.Now()
	b, err := gs.Build(prob.NewSource(seed))
	tr, serr := runTrialOn(gs, as, seed, eng, b, err)
	// The per-cell rebuild is part of this cell's cost (it is precisely what
	// the batched path amortizes), so charge it as before.
	tr.Elapsed = time.Since(start)
	return tr, serr
}

// runTrialOn solves one cell against an already-built instance (possibly
// shared with other cells under Grid.Batch — Sources are stateless, so the
// solver's seed-derived Fork is identical either way). The raw error is
// returned alongside the rendered TrialResult so the retry policy can
// classify the failure.
func runTrialOn(gs GraphSpec, as AlgoSpec, seed uint64, eng local.Engine, b *graph.Bipartite, buildErr error) (tr TrialResult, rawErr error) {
	tr = TrialResult{Graph: gs.Name, Algo: as.Name, Seed: seed}
	start := time.Now()
	defer func() { tr.Elapsed = time.Since(start) }()
	if buildErr != nil {
		tr.Err = fmt.Sprintf("build: %v", buildErr)
		return tr, buildErr
	}
	res, err := as.Solve(b, prob.NewSource(seed).Fork(1), eng)
	if err != nil {
		tr.Err = fmt.Sprintf("solve: %v", err)
		return tr, err
	}
	fillTrialResult(&tr, b, res)
	return tr, nil
}

// fillTrialResult derives the reported cell metrics from a solver result.
func fillTrialResult(tr *TrialResult, b *graph.Bipartite, res *core.Result) {
	tr.Rounds = res.Trace.Rounds()
	for _, c := range res.Colors {
		if c == core.Red {
			tr.Red++
		} else {
			tr.Blue++
		}
	}
	tr.Valid = check.WeakSplit(b, res.Colors, 0) == nil
}

// TrialsCSV renders trial results as CSV with a header row.
func TrialsCSV(trials []TrialResult) string {
	var sb strings.Builder
	w := csv.NewWriter(&sb)
	_ = w.Write([]string{"graph", "algo", "seed", "rounds", "red", "blue", "valid", "err", "elapsed", "retried"})
	for _, tr := range trials {
		_ = w.Write([]string{
			tr.Graph, tr.Algo, fmt.Sprintf("%d", tr.Seed), itoa(tr.Rounds),
			itoa(tr.Red), itoa(tr.Blue), fmt.Sprintf("%t", tr.Valid), tr.Err,
			tr.Elapsed.String(), itoa(tr.Retried),
		})
	}
	w.Flush()
	return sb.String()
}

// TrialsJSON renders trial results as an indented JSON array.
func TrialsJSON(trials []TrialResult) ([]byte, error) {
	return json.MarshalIndent(trials, "", "  ")
}

// CSV renders the table as CSV: the header row followed by the data rows.
// Metadata (title, claim, notes) is deliberately dropped — CSV is the
// machine-readable surface.
func (t *Table) CSV() string {
	var sb strings.Builder
	w := csv.NewWriter(&sb)
	_ = w.Write(t.Header)
	for _, row := range t.Rows {
		_ = w.Write(row)
	}
	w.Flush()
	return sb.String()
}

// JSON renders the table, including its metadata, as indented JSON.
func (t *Table) JSON() ([]byte, error) {
	return json.MarshalIndent(struct {
		ID       string     `json:"id"`
		Title    string     `json:"title"`
		PaperRef string     `json:"paper_ref"`
		Claim    string     `json:"claim"`
		Header   []string   `json:"header"`
		Rows     [][]string `json:"rows"`
		Notes    []string   `json:"notes,omitempty"`
	}{t.ID, t.Title, t.PaperRef, t.Claim, t.Header, t.Rows, t.Notes}, "", "  ")
}
