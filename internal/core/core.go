// Package core implements the paper's weak splitting algorithms
// (Definition 1.1): the zero-round randomized baseline (§2.1), the
// derandomized basic algorithm (Lemma 2.1) and its degree-truncated variant
// (Lemma 2.2), both Degree-Rank Reductions (§2.2, §2.3), the main
// deterministic algorithm (Theorem 1.1/2.5), the δ ≥ 6r algorithm
// (Theorem 2.7), the shattering-based randomized algorithm (Theorem 1.2),
// and the high-girth algorithms of Section 5.
//
// All entry points self-verify their output with package check before
// returning, and report a Trace with per-phase simulated LOCAL round costs.
package core

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/orient"
	"repro/internal/prob"
)

// Colors of a weak splitting, re-exported from package check so callers
// only need core.
const (
	Red       = check.Red
	Blue      = check.Blue
	Uncolored = check.Uncolored
)

// Phase is one step of a composite algorithm with its simulated LOCAL cost.
type Phase struct {
	Name   string
	Rounds int
}

// Trace records the cost breakdown of a run.
type Trace struct {
	Phases []Phase
	Notes  []string
}

// Add appends a phase.
func (t *Trace) Add(name string, rounds int) {
	t.Phases = append(t.Phases, Phase{Name: name, Rounds: rounds})
}

// Note appends a free-form remark (fallbacks taken, guards triggered, …).
func (t *Trace) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Merge appends all phases and notes of other, prefixing phase names.
func (t *Trace) Merge(prefix string, other *Trace) {
	for _, p := range other.Phases {
		t.Add(prefix+p.Name, p.Rounds)
	}
	for _, n := range other.Notes {
		t.Note("%s%s", prefix, n)
	}
}

// Rounds returns the total simulated LOCAL rounds.
func (t *Trace) Rounds() int {
	var sum int
	for _, p := range t.Phases {
		sum += p.Rounds
	}
	return sum
}

// Result is a weak splitting together with its cost trace.
type Result struct {
	// Colors[v] ∈ {Red, Blue} for every variable node v.
	Colors []int
	Trace  Trace
}

// SplitterKind selects the directed-degree-splitting substrate used inside
// the Degree-Rank Reductions (ablation E14, DESIGN.md substitution 1).
type SplitterKind int

// Splitter kinds.
const (
	// SplitterApproxDet is the deterministic cut-chain splitter,
	// O(1/ε + log* n) rounds, discrepancy ≤ 2·cuts+1 (≈ ε·d+2).
	SplitterApproxDet SplitterKind = iota + 1
	// SplitterApproxRand is the randomized cut-chain splitter.
	SplitterApproxRand
	// SplitterEulerian orients whole chains: discrepancy ≤ 1, rounds equal
	// to the longest chain.
	SplitterEulerian
)

func (k SplitterKind) String() string {
	switch k {
	case SplitterApproxDet:
		return "approx-det"
	case SplitterApproxRand:
		return "approx-rand"
	case SplitterEulerian:
		return "eulerian"
	default:
		return fmt.Sprintf("SplitterKind(%d)", int(k))
	}
}

// split dispatches to the chosen splitter.
func split(kind SplitterKind, m *graph.Multigraph, eps float64, src *prob.Source) *orient.Result {
	switch kind {
	case SplitterApproxRand:
		return orient.ApproxSplit(m, eps, src)
	case SplitterEulerian:
		return orient.EulerianSplit(m)
	default:
		return orient.ApproxSplitDet(m, eps)
	}
}

// log2n returns log2 of the paper's n = |U|+|V| for instance b, at least 1.
func log2n(b *graph.Bipartite) float64 {
	n := b.N()
	if n < 2 {
		return 1
	}
	return prob.Log2(float64(n))
}

// varToCons converts a bipartite instance into the variable→constraint
// adjacency and constraint degree slices the derandomizer consumes.
func varToCons(b *graph.Bipartite) ([][]int32, []int) {
	vtc := make([][]int32, b.NV())
	for v := range vtc {
		vtc[v] = b.NbrV(v)
	}
	degs := make([]int, b.NU())
	for u := range degs {
		degs[u] = b.DegU(u)
	}
	return vtc, degs
}

// ZeroRoundRandom is the trivial randomized algorithm of Section 2.1, run
// as a genuine 0-round LOCAL program: every variable node independently
// colors itself red or blue with probability 1/2. When δ ≥ 2·log n it
// succeeds with probability ≥ 1 − 2/n; the result is verified and an error
// returned on the (low-probability) failure so callers can retry with a
// fresh seed.
func ZeroRoundRandom(b *graph.Bipartite, src *prob.Source) (*Result, error) {
	return ZeroRoundRandomOn(b, src, nil)
}

// ZeroRoundRandomOn is ZeroRoundRandom on a chosen engine (nil means
// sequential). Engines are observationally identical, so the choice — and
// any plane forced through a local.Overlay — changes wall-clock time and
// representation only; the CLIs use this for plane ablations.
func ZeroRoundRandomOn(b *graph.Bipartite, src *prob.Source, eng local.Engine) (*Result, error) {
	if eng == nil {
		eng = local.SequentialEngine{}
	}
	colors := make([]int, b.NV())
	type vInput struct{ v int }
	g := b.AsGraph()
	topo := local.NewTopology(g)
	inputs := make([]any, g.N())
	for i := range inputs {
		if i >= b.NU() {
			inputs[i] = vInput{v: i - b.NU()}
		}
	}
	// The splitter is a genuine 0-round program — it sends nothing — so it
	// rides the bit plane, the cheapest representation the engines have.
	factory := func(view local.View) local.Node {
		return local.BitProgram(local.BitFunc(func(int, local.BitRow, local.BitRow) bool {
			if in, ok := view.Input.(vInput); ok {
				colors[in.v] = int(view.Rand.Uint64() & 1)
			}
			return true
		}))
	}
	stats, err := eng.Run(topo, factory, local.Options{Source: src, Inputs: inputs})
	if err != nil {
		return nil, fmt.Errorf("core: zero-round splitter: %w", err)
	}
	res := &Result{Colors: colors}
	// The algorithm itself is 0 rounds (no messages); the engine charges one
	// bookkeeping round for termination.
	res.Trace.Add("zero-round-random", stats.Rounds-1)
	if err := check.WeakSplit(b, colors, 0); err != nil {
		return res, fmt.Errorf("core: zero-round splitter failed verification (retry with a new seed): %w", err)
	}
	return res, nil
}

// ZeroRoundRandomRetry retries ZeroRoundRandom up to attempts times with
// forked seeds; the expected number of attempts is 1 + o(1) when
// δ ≥ 2·log n.
func ZeroRoundRandomRetry(b *graph.Bipartite, src *prob.Source, attempts int) (*Result, error) {
	return ZeroRoundRandomRetryOn(b, src, attempts, nil)
}

// ZeroRoundRandomRetryOn is ZeroRoundRandomRetry on a chosen engine; see
// ZeroRoundRandomOn.
func ZeroRoundRandomRetryOn(b *graph.Bipartite, src *prob.Source, attempts int, eng local.Engine) (*Result, error) {
	var lastErr error
	for i := 0; i < attempts; i++ {
		res, err := ZeroRoundRandomOn(b, src.Fork(uint64(i)), eng)
		if err == nil {
			if i > 0 {
				res.Trace.Note("succeeded after %d retries", i)
			}
			return res, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("core: zero-round splitter failed %d attempts: %w", attempts, lastErr)
}
