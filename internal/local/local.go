// Package local implements the LOCAL model of distributed computing
// [Lin92, Pel00]: a synchronous message-passing network in which, in every
// round, each node may send an arbitrarily large message to each of its
// neighbors and then update its state. Round complexity is the only
// resource; message size and local computation are unbounded.
//
// Algorithms are written as per-node state machines (the Node interface).
// Three round loops run them, one per message plane:
//
//   - runSeqBoxed iterates nodes in one goroutine over plain Message values:
//     the only path for boxed programs and, forced with Overlay{Plane:
//     PlaneBoxed}, the reference every other path must match bit-for-bit.
//   - BatchRun (many trials over one topology) holds the word and bit loops,
//     sharding every trial's active nodes over one pool of workers with
//     double-buffered, reused message planes.
//
// Both engines are one-trial batches: WorkerPoolEngine on up to GOMAXPROCS
// workers, SequentialEngine on one worker that runs inline on the calling
// goroutine, the right choice for small instances, for debugging, and for
// callers that already run many runs at once.
//
// All paths are observationally identical: per-node randomness is derived
// from (seed, node ID) only, never from scheduling, so a program produces
// bit-for-bit the same outputs under every engine (ablation E14 and the
// cross-engine determinism suite in determinism_test.go enforce this).
//
// Programs whose messages are small scalars should implement the WordNode
// fast path (see word.go): message planes become pointer-free []Word arrays
// and a steady-state round performs zero heap allocations on every engine
// and on the batched trial runner. Programs whose messages are single bits
// or trits — the paper's weak-splitting votes, retry bits and shattering
// trits — should implement the BitNode fast path on top (see bit.go): the
// planes pack 64 messages per uint64 and stay LLC-resident at million-node
// scale. Engines pick the fastest plane automatically (bit, then word,
// then boxed); Options.Plane forces one for ablations.
package local

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/graph"
	"repro/internal/prob"
)

// Message is an arbitrary value exchanged between neighbors; the LOCAL model
// does not bound message size.
type Message = any

// View is the static information a node starts with: its unique ID, its
// degree and port-numbered neighborhood, the network size n (standard
// knowledge in the LOCAL model), an optional per-node input, and a private
// random stream.
type View struct {
	ID     int   // unique identifier, O(log n) bits
	Deg    int   // number of incident ports
	NbrIDs []int // NbrIDs[p] = ID of the neighbor behind port p
	N      int   // number of nodes in the network
	Input  any   // per-node problem input (nil if none)
	Rand   *rand.Rand
}

// Node is a per-node program. Round is called once per synchronous round
// with the messages received on each port (nil for silent ports); it
// returns the messages to send per port (nil entries send nothing) and
// whether the node has terminated with its final output. A terminated
// node's last messages are still delivered, but Round is not called again.
type Node interface {
	Round(r int, recv []Message) (send []Message, done bool)
}

// Factory creates the program instance for one node.
type Factory func(v View) Node

// Topology is a port-numbered network in CSR layout: the adjacency and
// delivery arrays are flat, with node v's ports occupying
// [off[v], off[v+1]). adj aliases the graph's own CSR edge array (zero-copy)
// and is never written; engines iterate neighbors directly off these flat
// arrays, and message buffers use the same offsets.
//
// deliver is the precomputed delivery table every message-plane scatter
// uses: deliver[arc] is the inbox slot (within the receiver's row) of the
// message sent on that arc — what used to be the dependent two-load chain
// off[adj[arc]] + portBack[arc], fused at topology-build time into a single
// streamed lookup.
type Topology struct {
	off     []int32 // len N()+1; ports of v are indices off[v]..off[v+1]-1
	adj     []int32 // adj[off[v]+p] = neighbor behind port p of v
	deliver []int32 // deliver[off[v]+p] = inbox arc slot of that message at the neighbor
	maxDeg  int     // max degree; sizes the fast paths' send scratch rows
}

// maxTopologyArcs caps the directed-arc count a topology will index: off and
// deliver are int32, so anything past math.MaxInt32 would wrap silently
// during the delivery-table pass. A var so the overflow test can lower it
// instead of allocating a 2^31-arc graph.
var maxTopologyArcs = math.MaxInt32

// NewTopology builds a port-numbered topology from a graph. Like
// graph.CSRBuilder.Build, it panics with a descriptive error if the graph
// exceeds the int32 arc-index limit — in-package graphs are built through the
// guarded CSR builder, so this is unreachable for them; paths fed from
// untrusted input use NewTopologyE.
func NewTopology(g *graph.Graph) *Topology {
	t, err := NewTopologyE(g)
	if err != nil {
		panic(err)
	}
	return t
}

// NewTopologyE is NewTopology returning the arc-limit violation as an error
// instead of panicking.
func NewTopologyE(g *graph.Graph) (*Topology, error) {
	c := g.CSR()
	n := c.N()
	if c.Arcs() > maxTopologyArcs {
		return nil, fmt.Errorf("local: graph has %d directed arcs, exceeding the int32 delivery-table limit of %d",
			c.Arcs(), maxTopologyArcs)
	}
	t := &Topology{
		off:     c.Off,
		adj:     c.Edges,
		deliver: make([]int32, len(c.Edges)),
	}
	// Port p of v is its p-th sorted neighbor. Delivery slots fall out of
	// one counting pass: scanning v ascending, the arcs arriving at any w do
	// so with v ascending, which is exactly the order of w's sorted row — so
	// the reverse port of arc (v, w) is the number of arcs seen at w so far,
	// and the delivery slot is w's row offset plus that port.
	cursor := make([]int32, n)
	for v := 0; v < n; v++ {
		if d := int(c.Off[v+1] - c.Off[v]); d > t.maxDeg {
			t.maxDeg = d
		}
		for i := c.Off[v]; i < c.Off[v+1]; i++ {
			w := t.adj[i]
			t.deliver[i] = c.Off[w] + cursor[w]
			cursor[w]++
		}
	}
	return t, nil
}

// MaxDeg returns the maximum degree of the topology.
func (t *Topology) MaxDeg() int { return t.maxDeg }

// N returns the number of nodes.
func (t *Topology) N() int { return len(t.off) - 1 }

// Deg returns the degree of node v.
func (t *Topology) Deg(v int) int { return int(t.off[v+1] - t.off[v]) }

// row returns the neighbor array of v (a view into the flat adjacency).
func (t *Topology) row(v int) []int32 { return t.adj[t.off[v]:t.off[v+1]] }

// Options configure a run.
type Options struct {
	// Source provides the per-node random streams; required for randomized
	// algorithms, optional for deterministic ones.
	Source *prob.Source
	// IDs assigns unique identifiers; nil means IDs[v] = v. Experiments use
	// random permutations to exercise ID-dependent symmetry breaking.
	IDs []int
	// Inputs carries per-node problem inputs; nil means all-nil.
	Inputs []any
	// MaxRounds aborts runaway algorithms; 0 means a generous default.
	MaxRounds int
	// Plane pins the message-plane representation; the zero value PlaneAuto
	// picks the fastest plane the program supports. Forcing a plane the
	// program cannot take makes the run fail loudly instead of silently
	// falling back — that is what makes plane ablations trustworthy.
	Plane Plane
	// Faults injects seeded message drops, bounded delivery delay and
	// crash-stop failures (see FaultPlan). nil — or a plan with no active
	// knob — runs fault-free with the hot paths untouched. Fault decisions
	// are keyed by (fault seed, arc|node, round) only, so a faulty run is
	// bit-identical across engines, planes and worker counts.
	Faults *FaultPlan
	// Control makes the run cancellable (see RunControl): engines poll it
	// at round boundaries and abort with ErrCancelled/ErrDeadline and
	// partial Stats. nil runs uncontrolled with the hot paths untouched.
	Control *RunControl
}

const defaultMaxRounds = 1 << 20

func maxRoundsErr(maxRounds int) error {
	return fmt.Errorf("local: exceeded MaxRounds=%d", maxRounds)
}

// Plane selects the message-plane representation of a run. Every plane is
// observationally identical (delivery, termination, Stats); they differ in
// bytes per arc and allocations per round only.
type Plane uint8

// Plane values, in ladder order: engines on PlaneAuto try bit, then word,
// then boxed.
const (
	// PlaneAuto picks the fastest plane every node of the run supports.
	PlaneAuto Plane = iota
	// PlaneBoxed forces the Message = any planes (always possible).
	PlaneBoxed
	// PlaneWord forces the []Word planes; every node must be a WordNode.
	PlaneWord
	// PlaneBit forces the packed bit planes; every node must be a BitNode.
	PlaneBit
)

func (p Plane) String() string {
	switch p {
	case PlaneAuto:
		return "auto"
	case PlaneBoxed:
		return "boxed"
	case PlaneWord:
		return "word"
	case PlaneBit:
		return "bit"
	default:
		return fmt.Sprintf("Plane(%d)", uint8(p))
	}
}

// ParsePlane resolves a command-line plane name: "auto", "boxed", "word" or
// "bit".
func ParsePlane(name string) (Plane, error) {
	switch name {
	case "auto", "":
		return PlaneAuto, nil
	case "boxed":
		return PlaneBoxed, nil
	case "word":
		return PlaneWord, nil
	case "bit":
		return PlaneBit, nil
	default:
		return PlaneAuto, fmt.Errorf("local: unknown plane %q (have auto, boxed, word, bit)", name)
	}
}

// maxBitPlaneBits caps a packed plane's size in bits: BitRow and the
// scatter loops index lanes with uint32 bit offsets, so a plane of more
// than 2^32 bits — past 2^30 arcs at 4-bit lanes, below the 2^31-arc
// topology limit — would wrap. A var so the overflow test can lower it.
var maxBitPlaneBits = uint64(1) << 32

// bitPlaneFits reports whether a packed plane over arcs arcs at the given
// value width stays within maxBitPlaneBits (lanes are 1<<width bits).
func bitPlaneFits(arcs, width int) bool {
	return uint64(arcs)<<width <= maxBitPlaneBits
}

// planeNodes resolves the plane ladder for a run's nodes over a topology of
// arcs arcs under the requested plane: bit (bs non-nil, with the lane
// width), word (ws non-nil), or boxed (both nil). Requesting a plane the
// nodes cannot take is a loud error, never a silent fallback; every engine
// and the batch runner route their detection through this one helper. A
// bit run too large for the packed plane's lane indices takes the word
// plane on PlaneAuto and fails on a forced PlaneBit.
func planeNodes(nodes []Node, plane Plane, arcs int) (bs []BitNode, bitWidth int, ws []WordNode, err error) {
	switch plane {
	case PlaneAuto:
		if bs, bitWidth = asBitNodes(nodes); bs != nil {
			if bitPlaneFits(arcs, bitWidth) {
				return
			}
			bs, bitWidth = nil, 0
		}
		ws = asWordNodes(nodes)
	case PlaneBit:
		if bs, bitWidth = asBitNodes(nodes); bs == nil {
			err = fmt.Errorf("local: plane bit forced, but not every node implements BitNode")
		} else if !bitPlaneFits(arcs, bitWidth) {
			err = fmt.Errorf("local: plane bit forced, but %d arcs at %d-bit lanes need %d plane bits, past the packed plane's %d-bit lane-index limit",
				arcs, 1<<bitWidth, uint64(arcs)<<bitWidth, maxBitPlaneBits)
			bs, bitWidth = nil, 0
		}
	case PlaneWord:
		if ws = asWordNodes(nodes); ws == nil {
			err = fmt.Errorf("local: plane word forced, but not every node implements WordNode")
		}
	case PlaneBoxed:
	default:
		err = fmt.Errorf("local: unknown plane %d", uint8(plane))
	}
	return
}

// deliverBoxed scatters one node's boxed send row (first arc lo) into next
// through the precomputed delivery table, dropping (and not counting)
// messages to dead nodes; it returns the delivered count. Only the boxed
// loop uses it: boxed runs have no throughput path. The send slice is
// program-owned and left untouched.
//
//splitlint:zeroalloc
func (t *Topology) deliverBoxed(next []Message, dead []bool, lo int32, send []Message) int64 {
	var msgs int64
	for p, msg := range send {
		if msg != nil {
			arc := lo + int32(p)
			if !dead[t.adj[arc]] {
				next[t.deliver[arc]] = msg
				msgs++
			}
		}
	}
	return msgs
}

// deliverWords is deliverBoxed for a word send row. The row is
// engine-owned scratch, so it is cleared as it is scattered — after the
// call it is all-NilWord and ready for the next node.
//
//splitlint:zeroalloc
func (t *Topology) deliverWords(next []Word, dead []bool, base int, lo int32, send []Word) int64 {
	var msgs int64
	for p, msg := range send {
		if msg != NilWord {
			arc := lo + int32(p)
			if !dead[t.adj[arc]] {
				next[base+int(t.deliver[arc])] = msg
				msgs++
			}
			send[p] = NilWord
		}
	}
	return msgs
}

// Stats reports the cost of a run.
//
// Messages counts only delivered messages: ones consumed by a Round call of
// a still-running node. A message sent to a node that has already terminated
// is dropped at delivery and not counted — the recipient never reads it. The
// set of terminated nodes is fixed at round boundaries, so the count is
// identical under every engine regardless of intra-round scheduling (the
// determinism suite asserts full Stats equality across engines).
type Stats struct {
	Rounds   int   // number of synchronous rounds executed
	Messages int64 // number of (non-nil) point-to-point messages delivered

	// Fault-model counters, all zero on a fault-free run (Options.Faults nil
	// or inactive) and engine-identical by construction under faults:
	// Dropped counts messages the fault model removed for good (lost drops,
	// redelivery collisions, redeliveries to down nodes, crash-lost inbox
	// rows), Delayed counts messages taken off their round and queued for
	// redelivery (a delayed message that is later discarded also counts in
	// Dropped), and Crashed counts crash-stopped nodes.
	Dropped int64
	Delayed int64
	Crashed int
}

// Engine executes a Factory on a Topology.
type Engine interface {
	Run(t *Topology, f Factory, opts Options) (Stats, error)
}

// baseViews prepares the per-node Views minus their random streams, and
// returns the effective ID assignment: buildNodes attaches the streams.
// The split exists for the batch runner: trials with identity IDs and no
// inputs share one base view set and differ only in their streams.
func baseViews(t *Topology, opts Options) ([]View, []int, error) {
	n := t.N()
	ids := opts.IDs
	if ids == nil {
		ids = make([]int, n)
		for i := range ids {
			ids[i] = i
		}
	} else if len(ids) != n {
		return nil, nil, fmt.Errorf("local: got %d IDs for %d nodes", len(ids), n)
	} else {
		// Identity IDs (the nil case above) cannot collide; only explicit
		// assignments need the duplicate check.
		seen := make(map[int]struct{}, n)
		for _, id := range ids {
			if _, dup := seen[id]; dup {
				return nil, nil, fmt.Errorf("local: duplicate ID %d", id)
			}
			seen[id] = struct{}{}
		}
	}
	if opts.Inputs != nil && len(opts.Inputs) != n {
		return nil, nil, fmt.Errorf("local: got %d inputs for %d nodes", len(opts.Inputs), n)
	}
	vs := make([]View, n)
	// All NbrIDs rows share one flat backing array (the topology's arc
	// layout) and the random streams come from one bulk allocation, so view
	// construction costs O(1) allocations instead of O(n) — at batch scale
	// (trials × nodes) the difference is GC-visible.
	flatNbrIDs := make([]int, len(t.adj))
	for v := 0; v < n; v++ {
		row := t.row(v)
		nbrIDs := flatNbrIDs[t.off[v]:t.off[v+1]:t.off[v+1]]
		for p, w := range row {
			nbrIDs[p] = ids[w]
		}
		var input any
		if opts.Inputs != nil {
			input = opts.Inputs[v]
		}
		vs[v] = View{
			ID:     ids[v],
			Deg:    len(row),
			NbrIDs: nbrIDs,
			N:      n,
			Input:  input,
		}
	}
	return vs, ids, nil
}

// SequentialEngine runs every node on the calling goroutine: a run is the
// one-worker batch, BatchRun(t, []Trial{{f, opts}}, BatchOptions{Workers:
// 1}), whose single worker runs inline with no goroutines and no atomics.
// Word and bit programs take the batch's word and bit loops; boxed programs
// take runSeqBoxed, the reference loop. Callers that run many engines at
// once (service jobs, experiment grids) rely on it never starting a
// goroutine.
type SequentialEngine struct{}

var _ Engine = SequentialEngine{}

// Run implements Engine.
func (SequentialEngine) Run(t *Topology, f Factory, opts Options) (Stats, error) {
	stats, errs := BatchRun(t, []Trial{{Factory: f, Opts: opts}}, BatchOptions{Workers: 1})
	return stats[0], errs[0]
}

// runSeqBoxed is the boxed-plane loop, and the only boxed loop there is:
// BatchRun, and with it both engines, hands boxed runs and trials to it.
// Message = any planes allocate per send row, so a throughput path would
// buy little; boxed programs are tests, benchmarks and facade callers,
// never a shipped solver. Because it reads every message as a plain value
// and shares no code with the word and bit loops, the differential suites
// use it as their reference.
func runSeqBoxed(t *Topology, nodes []Node, maxRounds int, fs *faultState, ctl *RunControl) (stats Stats, err error) {
	n := t.N()
	// Double-buffered flat message arrays sharing the topology's offsets:
	// node v's inbox is inbox[off[v]:off[v+1]].
	arcs := len(t.adj)
	inbox := make([]Message, arcs)
	next := make([]Message, arcs)
	done := make([]bool, n)
	// dead[v] means v terminated in a strictly earlier round; deliveries to
	// dead nodes are dropped (and not counted), because the recipient will
	// never read them. done is updated mid-round, dead only at round
	// boundaries, so delivery semantics cannot depend on iteration order.
	dead := make([]bool, n)
	var newlyDone []int32
	remaining := n
	// Panic isolation: a panic in a Round call becomes the run's error with
	// the (node, round) coordinates, instead of killing the process.
	curV := -1
	defer func() {
		if p := recover(); p != nil {
			err = newPanicError(curV, stats.Rounds, p)
		}
	}()
	for r := 1; remaining > 0; r++ {
		// The cancellation point: before round r runs, so rounds 1..r-1 are
		// untouched and Stats cover exactly the rounds that executed. It
		// comes before the round cap, as in BatchRun.
		if cerr := ctl.Err(); cerr != nil {
			return stats, cerr
		}
		if r > maxRounds {
			return stats, maxRoundsErr(maxRounds)
		}
		stats.Rounds = r
		for i := range next {
			next[i] = nil
		}
		newlyDone = newlyDone[:0]
		for v := 0; v < n; v++ {
			if done[v] {
				continue
			}
			curV = v
			lo, hi := t.off[v], t.off[v+1]
			send, fin := nodes[v].Round(r, inbox[lo:hi:hi])
			if fin {
				done[v] = true
				newlyDone = append(newlyDone, int32(v))
				remaining--
			}
			if send == nil {
				continue
			}
			if len(send) != int(hi-lo) {
				return stats, fmt.Errorf("local: node %d sent %d messages on %d ports", v, len(send), hi-lo)
			}
			stats.Messages += t.deliverBoxed(next, dead, lo, send)
		}
		curV = -1
		// Messages addressed to nodes that terminated this round will never
		// be consumed: uncount and drop them, then retire the nodes.
		for _, v := range newlyDone {
			for i := t.off[v]; i < t.off[v+1]; i++ {
				if next[i] != nil {
					next[i] = nil
					stats.Messages--
				}
			}
			dead[v] = true
		}
		if fs != nil {
			for _, v := range newlyDone {
				fs.markDown(v)
			}
			for _, v := range fs.boundaryBoxed(r, next, &stats) {
				done[v] = true
				dead[v] = true
				remaining--
			}
		}
		inbox, next = next, inbox
	}
	return stats, nil
}

// PermutationIDs returns a pseudo-random permutation of 0..n-1 to use as
// Options.IDs, so that experiments do not accidentally rely on IDs matching
// topology indices.
func PermutationIDs(n int, src *prob.Source) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	rng := src.Rand()
	rng.Shuffle(n, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return ids
}
