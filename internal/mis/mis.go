// Package mis provides the maximal-independent-set substrates of
// Section 4.2: Luby's randomized algorithm as a LOCAL node program, the
// deterministic color-then-greedy algorithm (the [BEK14b] stand-in, see
// DESIGN.md substitution 4), and the heavy-node-elimination reduction of
// Lemma 4.2, which computes an MIS through repeated applications of the
// splitting problem.
package mis

import (
	"fmt"
	"math"

	"repro/internal/check"
	"repro/internal/coloring"
	"repro/internal/core"
	"repro/internal/derand"
	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/prob"
)

// Result is an MIS with cost accounting.
type Result struct {
	InSet []bool
	Trace core.Trace
}

// Lane values of the Luby node program's 2-bit messages. A priority message
// is the lane value 0 or 1 (the presence bit distinguishes "priority 0"
// from silence); the sender's identity needed for tie-breaking is already
// known to the receiver (View.NbrIDs), so it never travels.
const (
	lubyJoinedLane = 2 // sender joined the MIS
	lubyOutLane    = 3 // sender dropped out
)

// lubyNode is one node of Luby's algorithm in its single-bit-priority form,
// run as a genuine LOCAL program on the packed bit plane (local.Bit2Node) —
// every message of an iteration is one fresh coin, a join, or a drop-out,
// so the per-arc bandwidth is 2 bits plus presence, matching the paper's
// bandwidth model. Odd rounds: process join/out notifications, then
// broadcast a fresh random coin. Even rounds: a node whose (coin, ID) pair
// lexicographically beats all alive neighbors joins the MIS, announces it,
// and terminates; neighbors that see the announcement drop out in the next
// odd round. (coin, ID) pairs are distinct across any edge, so no two
// adjacent nodes ever join together; the fresh per-iteration coin gives the
// randomized symmetry-breaking progress, with the static ID order closing
// ties — the Métivier-et-al-style answer to "Luby without big priorities".
type lubyNode struct {
	view  local.View
	alive []bool // alive[p]: neighbor behind port p is still undecided
	myVal uint64
	out   *[]bool
	idx   int
}

var _ local.Bit2Node = (*lubyNode)(nil)
var _ local.BitBroadcaster = (*lubyNode)(nil)

// Bit2 implements local.Bit2Node.
func (l *lubyNode) Bit2() {}

// step runs one round's decision logic — shared by CastB and RoundB so the
// two send paths cannot drift — and reports the round's message (value,
// whether to send it, whether to terminate).
//
//splitlint:zeroalloc
func (l *lubyNode) step(r int, recv local.BitRow) (uint64, bool, bool) {
	if l.alive == nil {
		//lint:alloc one-time lazy init: the alive table is built on the node's first round and reused for the rest of the run
		l.alive = make([]bool, l.view.Deg)
		for p := range l.alive {
			l.alive[p] = true
		}
	}
	if r%2 == 1 {
		// Notification processing + coin broadcast.
		for p := 0; p < recv.Len(); p++ {
			if !recv.Has(p) {
				continue
			}
			switch recv.Get(p) {
			case lubyJoinedLane:
				// A neighbor joined: drop out, tell the others, stop.
				return lubyOutLane, true, true
			case lubyOutLane:
				l.alive[p] = false
			}
		}
		l.myVal = l.view.Rand.Uint64() & 1
		return l.myVal, true, false
	}
	// Decision round: compare against alive neighbors' coins.
	isMax := true
	for p := 0; p < recv.Len(); p++ {
		if !recv.Has(p) {
			continue
		}
		switch v := recv.Get(p); {
		case v == lubyOutLane:
			l.alive[p] = false
		case v <= 1 && l.alive[p]:
			if v > l.myVal || (v == l.myVal && l.view.NbrIDs[p] > l.view.ID) {
				isMax = false
			}
		}
	}
	if isMax {
		(*l.out)[l.idx] = true
		return lubyJoinedLane, true, true
	}
	return 0, false, false
}

// CastB implements local.BitBroadcaster, enabling the engines' fused
// scatter+aggregate fast path. CastB broadcasts on every port while RoundB
// stages sends only on still-alive ports, yet they are observationally
// identical: alive[p] goes false only after the neighbor behind p has
// terminated, and a terminated node's inbox arcs are already retired in
// the deliver table, so a message staged for a dead port is dropped —
// and not counted — on either path. Traces and Stats agree exactly.
//
//splitlint:zeroalloc
func (l *lubyNode) CastB(r int, recv local.BitRow) (uint64, bool, bool) {
	return l.step(r, recv)
}

// RoundB implements local.BitNode.
//
//splitlint:zeroalloc
func (l *lubyNode) RoundB(r int, recv, send local.BitRow) bool {
	v, cast, done := l.step(r, recv)
	if cast {
		l.broadcast(send, v)
	}
	return done
}

// broadcast stages v on the ports of still-alive neighbors.
//
//splitlint:zeroalloc
func (l *lubyNode) broadcast(send local.BitRow, v uint64) {
	for p := range l.alive {
		if l.alive[p] {
			send.Set(p, v)
		}
	}
}

// Luby computes an MIS with the single-bit-coin form of Luby's randomized
// algorithm run on the LOCAL engine: two rounds and at most two bits per
// arc per iteration. Iterations are logarithmic-ish in practice (the
// TestLubyOnRandomGraphs bound pins the regime the experiments use); the
// generous MaxRounds below guards the tail.
func Luby(g *graph.Graph, src *prob.Source) (*Result, error) {
	n := g.N()
	inSet := make([]bool, n)
	idx := 0
	factory := func(v local.View) local.Node {
		node := &lubyNode{view: v, out: &inSet, idx: idx}
		idx++
		return local.BitProgram(node)
	}
	topo := local.NewTopology(g)
	stats, err := local.SequentialEngine{}.Run(topo, factory, local.Options{
		Source:    src,
		MaxRounds: 256 * (prob.CeilLog2(max(2, n)) + 2),
	})
	if err != nil {
		return nil, fmt.Errorf("mis: Luby: %w", err)
	}
	res := &Result{InSet: inSet}
	res.Trace.Add("luby", stats.Rounds)
	if err := check.MIS(g, inSet); err != nil {
		return nil, fmt.Errorf("mis: Luby self-check: %w", err)
	}
	return res, nil
}

// GreedyByColor computes an MIS deterministically: (Δ+1)-color the graph
// with the LOCAL coloring program, then process color classes in order
// (one round per class) — nodes of the current class with no MIS neighbor
// join. This is the substitute for the linear-in-Δ MIS of [BEK14b].
func GreedyByColor(g *graph.Graph, eng local.Engine, opts local.Options) (*Result, error) {
	if eng == nil {
		eng = local.SequentialEngine{}
	}
	res := &Result{}
	colRes, err := coloring.DeltaPlusOne(g, eng, opts)
	if err != nil {
		return nil, fmt.Errorf("mis: coloring: %w", err)
	}
	res.Trace.Add("coloring", colRes.Stats.Rounds)
	n := g.N()
	inSet := make([]bool, n)
	blocked := make([]bool, n)
	for c := 0; c < colRes.Num; c++ {
		for v := 0; v < n; v++ {
			if colRes.Colors[v] != c || blocked[v] {
				continue
			}
			inSet[v] = true
			blocked[v] = true
			for _, w := range g.Neighbors(v) {
				blocked[w] = true
			}
		}
	}
	res.Trace.Add("greedy-by-class", colRes.Num)
	res.InSet = inSet
	if err := check.MIS(g, inSet); err != nil {
		return nil, fmt.Errorf("mis: greedy-by-color self-check: %w", err)
	}
	return res, nil
}

// HeavyEliminationOptions tune ViaHeavyElimination.
type HeavyEliminationOptions struct {
	Engine local.Engine
	// Eps is the splitting accuracy (the paper uses 1/log²n; the default
	// 0.15 keeps the derandomized splitter's precondition reachable at
	// simulation scale, cf. DESIGN.md).
	Eps float64
	// LowDegree is the threshold below which the residual graph is finished
	// off directly (the paper's poly log n); default 4·(log₂n + 1).
	LowDegree int
}

func (o *HeavyEliminationOptions) normalize(n int) {
	if o.Engine == nil {
		o.Engine = local.SequentialEngine{}
	}
	if o.Eps <= 0 {
		o.Eps = 0.15
	}
	if o.LowDegree <= 0 {
		o.LowDegree = 4 * (prob.CeilLog2(n) + 1)
	}
}

// ViaHeavyElimination is Lemma 4.2: an MIS computed through repeated
// splitting. In each stage the heavy nodes (degree ≥ Δcur/2 among the
// remaining graph) and their neighbors are split repeatedly until the
// active degrees are O(log n); an MIS of the resulting low-degree graph G*
// eliminates a 1/polylog fraction of the heavy nodes (Lemma 4.4); stages
// repeat until no heavy nodes remain, then Δcur halves. The low-degree
// remainder is finished with the deterministic MIS.
//
// Splits use the derandomized uniform splitter when the active degrees meet
// its precondition and plain random splits (with progress guaranteed by a
// direct fallback) otherwise; the trace records which happened.
func ViaHeavyElimination(g *graph.Graph, src *prob.Source, opts HeavyEliminationOptions) (*Result, error) {
	n := g.N()
	opts.normalize(n)
	logn := math.Max(1, prob.Log2(float64(max(2, n))))
	res := &Result{}
	inSet := make([]bool, n)
	removed := make([]bool, n)

	degRem := func(v int) int {
		d := 0
		for _, w := range g.Neighbors(v) {
			if !removed[w] {
				d++
			}
		}
		return d
	}
	eliminate := func(v int) {
		inSet[v] = true
		removed[v] = true
		for _, w := range g.Neighbors(v) {
			removed[int(w)] = true
		}
	}

	stage := 0
	splitRounds := 0
	misRounds := 0
	fallbacks := 0
	for deltaCur := g.MaxDeg(); deltaCur > opts.LowDegree; deltaCur = (deltaCur + 1) / 2 {
		for iter := 0; ; iter++ {
			if iter > 64*n {
				return nil, fmt.Errorf("mis: heavy elimination stalled at Δcur=%d", deltaCur)
			}
			var heavy []int
			for v := 0; v < n; v++ {
				if !removed[v] && degRem(v) >= deltaCur/2 {
					heavy = append(heavy, v)
				}
			}
			if len(heavy) == 0 {
				break
			}
			stage++
			// Active set: heavy nodes and their remaining neighbors.
			activeSet := make(map[int]struct{})
			for _, v := range heavy {
				activeSet[v] = struct{}{}
				for _, w := range g.Neighbors(v) {
					if !removed[w] {
						activeSet[int(w)] = struct{}{}
					}
				}
			}
			active := make([]int, 0, len(activeSet))
			for v := 0; v < n; v++ {
				if _, ok := activeSet[v]; ok {
					active = append(active, v)
				}
			}
			// Repeated splitting until active degrees are ≤ LowDegree.
			stageSrc := src.Fork(uint64(1000 + stage))
			for step := 0; ; step++ {
				sub, orig := g.InducedSubgraph(active)
				if sub.MaxDeg() <= opts.LowDegree || step > 2*prob.CeilLog2(deltaCur)+4 {
					// Low enough (or the schedule is exhausted): MIS on G*.
					misRes, err := GreedyByColor(sub, opts.Engine, local.Options{})
					if err != nil {
						return nil, fmt.Errorf("mis: G* MIS: %w", err)
					}
					misRounds += misRes.Trace.Rounds()
					picked := 0
					for sv, in := range misRes.InSet {
						if in && !removed[orig[sv]] {
							eliminate(orig[sv])
							picked++
						}
					}
					if picked == 0 {
						// Progress fallback: eliminate the first heavy node
						// directly (1 LOCAL round).
						fallbacks++
						eliminate(heavy[0])
						misRounds++
					}
					break
				}
				colors, det, err := splitActive(sub, opts.Eps, stageSrc.Fork(uint64(step)))
				if err != nil {
					return nil, fmt.Errorf("mis: splitting step: %w", err)
				}
				if !det {
					fallbacks++
				}
				splitRounds++
				// Keep red nodes that retain ≥ log n red neighbors.
				redNbrs := make([]int, sub.N())
				for sv := 0; sv < sub.N(); sv++ {
					for _, sw := range sub.Neighbors(sv) {
						if colors[sw] == check.Red {
							redNbrs[sv]++
						}
					}
				}
				var next []int
				for sv := 0; sv < sub.N(); sv++ {
					if colors[sv] == check.Red && float64(redNbrs[sv]) >= math.Min(logn, float64(sub.Deg(sv))) {
						next = append(next, orig[sv])
					}
				}
				if len(next) == 0 {
					// Degenerate split; fall back to direct elimination.
					fallbacks++
					eliminate(heavy[0])
					misRounds++
					break
				}
				active = next
			}
		}
	}
	// Finish the low-degree remainder deterministically.
	var rest []int
	for v := 0; v < n; v++ {
		if !removed[v] {
			rest = append(rest, v)
		}
	}
	if len(rest) > 0 {
		sub, orig := g.InducedSubgraph(rest)
		misRes, err := GreedyByColor(sub, opts.Engine, local.Options{})
		if err != nil {
			return nil, fmt.Errorf("mis: residual MIS: %w", err)
		}
		misRounds += misRes.Trace.Rounds()
		for sv, in := range misRes.InSet {
			if in {
				inSet[orig[sv]] = true
			}
		}
	}
	res.InSet = inSet
	res.Trace.Add("splitting-steps", splitRounds)
	res.Trace.Add("mis-subcalls", misRounds)
	res.Trace.Note("heavy elimination: %d stages, %d fallbacks", stage, fallbacks)
	if err := check.MIS(g, inSet); err != nil {
		return nil, fmt.Errorf("mis: heavy elimination self-check: %w", err)
	}
	return res, nil
}

// splitActive two-colors the active subgraph: derandomized uniform
// splitting when every constrained degree meets the precondition, plain
// per-node random coins otherwise. Returns the colors and whether the
// deterministic path was taken.
func splitActive(sub *graph.Graph, eps float64, src *prob.Source) ([]int, bool, error) {
	n := sub.N()
	vtc := make([][]int32, n)
	var degs []int
	// Constrain only nodes whose degree supports the Chernoff potential.
	minDeg := int(math.Ceil(2 * math.Log(2*float64(max(2, n))) / (eps * eps)))
	consIdx := make([]int32, n)
	for v := 0; v < n; v++ {
		consIdx[v] = -1
		if sub.Deg(v) >= minDeg {
			consIdx[v] = int32(len(degs))
			degs = append(degs, sub.Deg(v))
		}
	}
	for v := 0; v < n; v++ {
		for _, w := range sub.Neighbors(v) {
			if consIdx[w] >= 0 {
				vtc[v] = append(vtc[v], consIdx[w])
			}
		}
	}
	if len(degs) > 0 {
		est := derand.NewUniformSplitEstimator(vtc, degs, eps)
		if est.Cost() < 1 {
			order := make([]int, n)
			for i := range order {
				order[i] = i
			}
			labels, err := derand.Greedy(est, order)
			if err == nil {
				return labels, true, nil
			}
		}
	}
	// Randomized fallback: independent fair coins.
	labels := make([]int, n)
	for v := range labels {
		labels[v] = int(src.Node(v).Uint64() & 1)
	}
	return labels, false, nil
}
