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
	// Multigraph supports the directed degree splitting substrate.
	Multigraph = graph.Multigraph
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
	// Factory creates the program instance for one node.
	Factory = local.Factory
	// Message is an arbitrary value exchanged between neighbors.
	Message = local.Message
	// Word is a compact one-uint64 message (tag bits + payload) for the
	// engines' zero-allocation fast path; the zero value NilWord means
	// "no message".
	Word = local.Word
	// WordNode is the zero-allocation per-node program interface: RoundW
	// reads and writes engine-owned word buffers instead of allocating
	// message slices. Wrap with WordProgram to obtain a Node.
	WordNode = local.WordNode
	// WordFunc adapts a closure to WordNode.
	WordFunc = local.WordFunc
	// BitRow is a packed view of one node's inbox or outbox on the bit
	// plane: one presence bit plus 1–2 value bits per port.
	BitRow = local.BitRow
	// Bit2Row is a BitRow with 2-bit (trit) values.
	Bit2Row = local.Bit2Row
	// BitNode is the bit-plane fast path: single-bit messages packed 32
	// per word, planes cache-resident at million-node scale. Wrap with
	// BitProgram to obtain a Node.
	BitNode = local.BitNode
	// Bit2Node marks a BitNode whose messages are trits (2-bit values).
	Bit2Node = local.Bit2Node
	// BitFunc adapts a closure to BitNode.
	BitFunc = local.BitFunc
	// Bit2Func adapts a closure to a Bit2Node.
	Bit2Func = local.Bit2Func
	// Plane selects the message-plane representation of a run; see
	// ForcePlane.
	Plane = local.Plane
	// FaultPlan is a seeded, keyed fault model (message drops, bounded
	// redelivery delay, crash-stop failures); see ForceFaults. The same plan
	// replays bit-identically on every engine, plane and worker count.
	FaultPlan = local.FaultPlan
)

// Plane values, in fallback-ladder order.
const (
	PlaneAuto  = local.PlaneAuto
	PlaneBoxed = local.PlaneBoxed
	PlaneWord  = local.PlaneWord
	PlaneBit   = local.PlaneBit
)

// NilWord is the reserved "no message" word.
const NilWord = local.NilWord

// NodeFunc adapts a closure to the Node interface, for programs without
// per-node state.
type NodeFunc func(r int, recv []Message) ([]Message, bool)

// Round implements Node.
func (f NodeFunc) Round(r int, recv []Message) ([]Message, bool) { return f(r, recv) }

// MakeWord packs a tag (1..7) and a payload into a Word; see local.MakeWord.
func MakeWord(tag uint8, payload uint64) Word { return local.MakeWord(tag, payload) }

// MakeIntWord packs a signed payload under the given tag; see
// local.MakeIntWord.
func MakeIntWord(tag uint8, x int) Word { return local.MakeIntWord(tag, x) }

// Broadcast fills every slot of a send buffer with w — the shared broadcast
// helper of word programs.
func Broadcast(send []Word, w Word) { local.Broadcast(send, w) }

// WordProgram adapts a WordNode to the Node interface. Engines detect the
// underlying WordNode and run it on the flat word planes — a steady-state
// round then performs zero heap allocations; on any engine (or mixed
// program) that cannot, the adapter exchanges the same Words boxed.
func WordProgram(w WordNode) Node { return local.WordProgram(w) }

// BitProgram adapts a BitNode to the Node interface. Engines detect the
// underlying BitNode and run it on the packed bit planes (1–3 bits per arc
// per plane, zero allocations per round); mixed runs fall down the
// boxed ← word ← bit ladder with unchanged meaning.
func BitProgram(b BitNode) Node { return local.BitProgram(b) }

// IntLane zigzag-encodes a small signed value (a splitting trit) into a
// bit-plane value lane; LaneInt decodes it.
func IntLane(x int) uint64 { return local.IntLane(x) }

// LaneInt decodes a zigzag-encoded value lane.
func LaneInt(v uint64) int { return local.LaneInt(v) }

// ParsePlane resolves a plane name ("auto", "boxed", "word", "bit").
func ParsePlane(name string) (Plane, error) { return local.ParsePlane(name) }

// ForcePlane wraps an engine so every run takes the given message plane;
// programs that cannot take it fail loudly instead of falling back.
func ForcePlane(e Engine, p Plane) Engine { return local.ForcePlane(e, p) }

// ForceFaults wraps an engine so every run executes under the given fault
// plan; an inactive plan (Drop and Crash both zero) returns the engine
// unchanged. Stats report the injected Dropped/Delayed/Crashed counts.
func ForceFaults(e Engine, fp FaultPlan) Engine { return local.ForceFaults(e, fp) }

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
// programs have no throughput path and run on the sequential loop.
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

// NewBipartite returns an empty instance with nu constraints and nv
// variables; add edges with AddEdge and finish with Normalize.
func NewBipartite(nu, nv int) *Bipartite { return graph.NewBipartite(nu, nv) }

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

// ReadInstance parses the "nu nv"-header instance text format from a file.
func ReadInstance(path string) (*Bipartite, error) { return graph.ReadInstance(path) }

// EdgeListOptions is the input-hygiene policy of ReadEdgeList; the zero
// value rejects self loops and duplicate edges with descriptive errors.
type EdgeListOptions = graph.EdgeListOptions

// ReadEdgeList parses a SNAP-style edge-list/adjacency text file, remapping
// arbitrary node IDs to dense indices (returned alongside the graph).
func ReadEdgeList(path string, opt EdgeListOptions) (*Graph, []int64, error) {
	return graph.ReadEdgeList(path, opt)
}

// ReadGraphSnapshot loads a graph from a binary CSR snapshot file with no
// O(m) rebuild: payloads are checksum-verified, structurally validated, and
// used in place. Write snapshots with WriteGraphSnapshot or cmd/csrpack.
func ReadGraphSnapshot(path string) (*Graph, error) { return graph.ReadSnapshot(path) }

// ReadInstanceSnapshot is ReadGraphSnapshot for bipartite instances.
func ReadInstanceSnapshot(path string) (*Bipartite, error) { return graph.ReadBipartiteSnapshot(path) }

// WriteGraphSnapshot writes g to path in the binary CSR snapshot format
// (DESIGN.md §CSR snapshot format).
func WriteGraphSnapshot(path string, g *Graph) error {
	return writeSnapshotFile(path, g.ExportSnapshot)
}

// WriteInstanceSnapshot writes b to path in the binary CSR snapshot format.
func WriteInstanceSnapshot(path string, b *Bipartite) error {
	return writeSnapshotFile(path, b.ExportSnapshot)
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

// RandomizedOn is Randomized with an explicit simulation engine.
func RandomizedOn(b *Bipartite, src *Source, eng Engine) (*Result, error) {
	return core.RandomizedSplit(b, src, core.RandomizedOptions{Engine: eng})
}

// SixR solves instances with δ ≥ 6·r deterministically (Theorem 2.7).
func SixR(b *Bipartite) (*Result, error) {
	return core.SixRSplit(b, core.SixROptions{})
}

// SixROn is SixR with an explicit simulation engine.
func SixROn(b *Bipartite, eng Engine) (*Result, error) {
	return core.SixRSplit(b, core.SixROptions{Engine: eng})
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

// Outcome is the three-band grade a Degradation carries.
type Outcome = check.Outcome

// Outcome bands, in decreasing order of health.
const (
	OutcomeValid     = check.OutcomeValid
	OutcomeDegraded  = check.OutcomeDegraded
	OutcomeShattered = check.OutcomeShattered
)

// Grade classifies a weak splitting produced under faults (see ForceFaults):
// pass-fail verification is the wrong instrument once crash-stop holes are
// expected, so Grade separates degraded coverage from broken logic.
func Grade(b *Bipartite, colors []int, minDeg int) Degradation {
	return check.WeakSplitDegradation(b, colors, minDeg)
}
