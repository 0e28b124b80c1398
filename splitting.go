// Package splitting is a Go reproduction of "On the Complexity of
// Distributed Splitting Problems" (Bamberger, Ghaffari, Kuhn, Maus, Uitto;
// PODC 2019). It implements the weak splitting problem and its relatives in
// a simulated LOCAL model, together with every algorithm, reduction and
// derandomization the paper describes:
//
//   - weak splitting (Definition 1.1): the zero-round randomized baseline,
//     the derandomized Lemma 2.1/2.2 algorithms, the main deterministic
//     algorithm (Theorem 1.1/2.5) built on Degree-Rank Reduction I, the
//     δ ≥ 6r algorithm (Theorem 2.7) built on Degree-Rank Reduction II, the
//     shattering-based randomized algorithm (Theorem 1.2), and the
//     high-girth variants of Section 5;
//   - multicolor splittings (Definitions 1.2/1.3) and the completeness
//     reductions of Theorems 3.2/3.3;
//   - the Figure 1 reduction from sinkless orientation (Theorem 2.10), the
//     (1+o(1))Δ-coloring of Lemma 4.1 and the MIS of Lemma 4.2.
//
// This package is the façade: thin, documented wrappers over the internal
// packages, which examples/ and cmd/ build upon. Instances are bipartite
// graphs B = (U ∪ V, E) whose left side holds constraints and whose right
// side holds 2-colorable variables, stored in compressed-sparse-row form so
// million-node instances simulate at hardware speed; see DESIGN.md for the
// full system inventory (including the CSR graph core and the engine
// architecture) and EXPERIMENTS.md for the measured validation of every
// theorem and the benchmark tables.
package splitting

import (
	"io"
	"os"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/prob"
)

// Re-exported instance types.
type (
	// Graph is a simple undirected graph.
	Graph = graph.Graph
	// Bipartite is a weak-splitting instance B = (U ∪ V, E).
	Bipartite = graph.Bipartite
	// Result is a weak splitting together with its simulated LOCAL cost.
	Result = core.Result
	// Source is the reproducible randomness used by all randomized
	// algorithms.
	Source = prob.Source
	// Engine executes LOCAL node programs (sequential or worker-pool
	// sharded).
	Engine = local.Engine
	// Topology is a port-numbered network over a graph's CSR layout.
	Topology = local.Topology
	// Trial is one independent run of a Batch: a LOCAL node-program factory
	// plus its per-trial options (seed source, ID assignment, round cap).
	Trial = local.Trial
	// RunOptions configure a single LOCAL run (local.Options).
	RunOptions = local.Options
	// Stats reports the simulated cost of a LOCAL run.
	Stats = local.Stats
	// View is the static information a LOCAL node program starts with.
	View = local.View
	// Node is a per-node LOCAL program.
	Node = local.Node
	// Message is an arbitrary value exchanged between neighbors.
	Message = local.Message
	// Overlay carries the run-wide settings every run of an engine takes —
	// a forced message plane, a fault plan, a run control: Overlay{...}.On(e)
	// returns the overlaid engine. Programs that cannot take a forced plane
	// fail loudly instead of falling back; Stats report the injected
	// Dropped/Delayed/Crashed counts.
	Overlay = local.Overlay
	// Plane selects the message-plane representation of a run; see Overlay.
	Plane = local.Plane
	// FaultPlan is a seeded, keyed fault model (message drops, bounded
	// redelivery delay, crash-stop failures); see Overlay. The same plan
	// replays bit-identically on every engine, plane and worker count.
	FaultPlan = local.FaultPlan
	// RunControl makes every run of an overlaid engine cancellable: runs
	// poll its context at round boundaries and stop with ErrCancelled or
	// ErrDeadline and the Stats of the rounds that ran; see Overlay.
	RunControl = local.RunControl
)

// Errors of a run whose RunControl fired: its context was cancelled
// (ErrCancelled) or its deadline passed (ErrDeadline). Match them with
// errors.Is.
var (
	ErrCancelled = local.ErrCancelled
	ErrDeadline  = local.ErrDeadline
)

// Plane values, in fallback-ladder order.
const (
	PlaneAuto  = local.PlaneAuto
	PlaneBoxed = local.PlaneBoxed
	PlaneWord  = local.PlaneWord
	PlaneBit   = local.PlaneBit
)

// NodeFunc adapts a closure to the Node interface, for programs without
// per-node state.
type NodeFunc func(r int, recv []Message) ([]Message, bool)

// Round implements Node.
func (f NodeFunc) Round(r int, recv []Message) ([]Message, bool) { return f(r, recv) }

// Colors of a weak splitting.
const (
	Red  = core.Red
	Blue = core.Blue
)

// NewSource returns a reproducible randomness source for the given seed.
func NewSource(seed uint64) *Source { return prob.NewSource(seed) }

// Sequential returns the single-goroutine LOCAL engine.
func Sequential() Engine { return local.SequentialEngine{} }

// WorkerPool returns the sharded worker-pool LOCAL engine — the fastest
// choice on large instances. workers <= 0 means GOMAXPROCS. Like every
// engine it produces bit-for-bit the same outputs as Sequential; boxed
// programs have no throughput path and run on the boxed loop.
func WorkerPool(workers int) Engine { return local.WorkerPoolEngine{Workers: workers} }

// NewTopology builds the port-numbered topology of a graph once, so that a
// multi-trial sweep can share it across Batch calls and engine runs.
func NewTopology(g *Graph) *Topology { return local.NewTopology(g) }

// Batch executes independent trials of LOCAL node programs over one shared
// topology in a single batched pass — the amortized path for multi-seed
// experiment sweeps. It returns one Stats and one error slot per trial, in
// order; every trial is bit-identical to a standalone sequential run with
// the same options. workers sizes the shared pool (<= 0 means GOMAXPROCS).
func Batch(t *Topology, trials []Trial, workers int) ([]Stats, []error) {
	return local.BatchRun(t, trials, local.BatchOptions{Workers: workers})
}

// TrivialRandomizedBatch solves one instance under many seeds in a single
// batched pass; result i is bit-identical to TrivialRandomized(b, srcs[i]).
func TrivialRandomizedBatch(b *Bipartite, srcs []*Source) ([]*Result, []error) {
	return core.ZeroRoundRandomRetryBatch(b, srcs, 16, 0, nil)
}

// --- Instance construction -------------------------------------------------

// FromGraph encodes a general graph as a weak-splitting instance
// (Section 1.2): both sides get one copy of every node, and a splitting
// 2-colors the nodes of the original graph.
func FromGraph(g *Graph) *Bipartite { return graph.FromGraph(g) }

// RandomInstance returns a random bipartite instance where every constraint
// has degree exactly d.
func RandomInstance(nu, nv, d int, src *Source) (*Bipartite, error) {
	return graph.RandomBipartiteLeftRegular(nu, nv, d, src.Rand())
}

// RandomBiregularInstance returns a random instance with constraint degree
// exactly d and variable degrees balanced to within one.
func RandomBiregularInstance(nu, nv, d int, src *Source) (*Bipartite, error) {
	return graph.RandomBipartiteBiregular(nu, nv, d, src.Rand())
}

// HighGirthStarInstance returns the girth-∞, rank-2 instance of constraint
// degree d used by the Section 5 experiments (a subdivided star of stars).
func HighGirthStarInstance(d int) (*Bipartite, error) {
	return graph.SubdividedStar(d)
}

// --- Instance and graph file I/O --------------------------------------------

// ReadInstanceFile loads a splitting instance from any supported on-disk
// format, dispatching on content: a binary CSR snapshot (bipartite loads
// directly; a graph snapshot converts via FromGraph), a SNAP-style edge
// list (first non-blank line is a '#'/'%' comment; converts via FromGraph),
// or the "nu nv"-header instance text format.
func ReadInstanceFile(path string) (*Bipartite, error) { return graph.ReadBipartiteFile(path) }

// ReadGraphSnapshot loads a graph from a binary CSR snapshot file with no
// O(m) rebuild: payloads are checksum-verified, structurally validated, and
// used in place. Write snapshots with WriteGraphSnapshot or cmd/csrpack.
func ReadGraphSnapshot(path string) (*Graph, error) { return graph.ReadSnapshot(path) }

// WriteGraphSnapshot writes g to path in the binary CSR snapshot format
// (DESIGN.md §CSR snapshot format).
func WriteGraphSnapshot(path string, g *Graph) error {
	return writeSnapshotFile(path, g.ExportSnapshot)
}

func writeSnapshotFile(path string, export func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := export(f); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	return f.Close()
}

// --- Weak splitting algorithms ----------------------------------------------

// TrivialRandomized is the zero-round randomized splitter of Section 2.1
// with bounded retries; it succeeds w.h.p. whenever δ ≥ 2·log n.
func TrivialRandomized(b *Bipartite, src *Source) (*Result, error) {
	return core.ZeroRoundRandomRetry(b, src, 16)
}

// Deterministic is the paper's main deterministic algorithm
// (Theorem 1.1 / 2.5): O((r/δ)·log²n + log³n·(loglog n)^1.1) simulated
// rounds when δ ≥ 2·log n.
func Deterministic(b *Bipartite) (*Result, error) {
	return core.DeterministicSplit(b, core.DeterministicOptions{})
}

// DeterministicOn is Deterministic with an explicit simulation engine;
// engines only change wall-clock time, never the output.
func DeterministicOn(b *Bipartite, eng Engine) (*Result, error) {
	return core.DeterministicSplit(b, core.DeterministicOptions{Engine: eng})
}

// Randomized is the shattering-based randomized algorithm (Theorem 1.2):
// O((r/δ)·poly log(r·log n)) simulated rounds when δ ≥ c·log(r·log n).
func Randomized(b *Bipartite, src *Source) (*Result, error) {
	return core.RandomizedSplit(b, src, core.RandomizedOptions{})
}

// SixR solves instances with δ ≥ 6·r deterministically (Theorem 2.7).
func SixR(b *Bipartite) (*Result, error) {
	return core.SixRSplit(b, core.SixROptions{})
}

// HighGirthDeterministic is Theorem 5.2 (girth ≥ 10, derandomized
// shattering over a B⁴ coloring).
func HighGirthDeterministic(b *Bipartite) (*Result, error) {
	return core.HighGirthDeterministic(b, local.SequentialEngine{})
}

// HighGirthRandomized is Theorem 5.3 (girth ≥ 10, shattering + Theorem 2.7
// on the residual components).
func HighGirthRandomized(b *Bipartite, src *Source) (*Result, error) {
	return core.HighGirthRandomized(b, src, 8)
}

// Reference is the centralized backtracking existence oracle; it is not a
// LOCAL algorithm but solves any satisfiable instance (subject to a search
// budget), including regimes below every algorithmic threshold.
func Reference(b *Bipartite) (*Result, error) {
	return core.ExhaustiveSplit(b, 0)
}

// Verify checks a weak splitting: every constraint with degree ≥ minDeg
// must see both colors (use minDeg = 0 to constrain everyone).
func Verify(b *Bipartite, colors []int, minDeg int) error {
	return check.WeakSplit(b, colors, minDeg)
}

// Degradation is the graded verdict on one faulty run's output: valid
// (invariants hold with full coverage), degraded (crash holes, consistent
// on surviving data) or shattered (an invariant failed on fully-reported
// data). See Grade.
type Degradation = check.Degradation

// Grade classifies a weak splitting produced under faults (see Overlay):
// pass-fail verification is the wrong instrument once crash-stop holes are
// expected, so Grade separates degraded coverage from broken logic.
func Grade(b *Bipartite, colors []int, minDeg int) Degradation {
	return check.WeakSplitDegradation(b, colors, minDeg)
}
