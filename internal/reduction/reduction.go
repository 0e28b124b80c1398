// Package reduction implements the paper's reductions between splitting and
// other symmetry-breaking problems:
//
//   - Section 2.5 / Figure 1: sinkless orientation via weak splitting — the
//     construction behind the Ω(log_Δ log n) lower bound of Theorem 2.10,
//     here run forwards as an executable pipeline (experiment E7
//     reproduces Figure 1).
//   - Section 4.1 / Lemma 4.1: (1+o(1))Δ vertex coloring via repeated
//     uniform splitting.
//
// The uniform splitting subroutine itself (randomized + derandomized) also
// lives here, together with the clique-gadget preprocessing of the
// Section 4.1 Remark.
package reduction

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

// SinklessInstance is the bipartite weak-splitting instance built from a
// graph by the Figure 1 construction, with the bookkeeping needed to map a
// splitting back to an orientation.
type SinklessInstance struct {
	B     *graph.Bipartite
	Edges [][2]int // Edges[i] is the graph edge behind variable node i
	IDs   []int    // the identifiers used for the majority rule
}

// BuildSinklessInstance constructs B from G (Figure 1): one constraint node
// per graph node, one variable node per graph edge; a node with at least
// half of its neighbors of larger ID connects to its larger-ID edges,
// otherwise to its smaller-ID edges. The result has rank ≤ 2 and
// δ_B ≥ ⌈δ_G/2⌉. IDs nil means identity.
func BuildSinklessInstance(g *graph.Graph, ids []int) (*SinklessInstance, error) {
	n := g.N()
	if ids == nil {
		ids = make([]int, n)
		for i := range ids {
			ids[i] = i
		}
	} else if len(ids) != n {
		return nil, fmt.Errorf("reduction: %d IDs for %d nodes", len(ids), n)
	}
	edges := g.Edges()
	edgeIdx := make(map[[2]int]int, len(edges))
	for i, e := range edges {
		edgeIdx[e] = i
	}
	var pairs [][2]int
	for v := 0; v < n; v++ {
		larger := 0
		for _, w := range g.Neighbors(v) {
			if ids[w] > ids[v] {
				larger++
			}
		}
		useLarger := 2*larger >= g.Deg(v)
		for _, w := range g.Neighbors(v) {
			if (ids[int(w)] > ids[v]) != useLarger {
				continue
			}
			key := [2]int{v, int(w)}
			if v > int(w) {
				key = [2]int{int(w), v}
			}
			pairs = append(pairs, [2]int{v, edgeIdx[key]})
		}
	}
	b, err := graph.BipartiteFromEdges(n, len(edges), pairs)
	if err != nil {
		return nil, fmt.Errorf("reduction: building B: %w", err)
	}
	return &SinklessInstance{B: b, Edges: edges, IDs: ids}, nil
}

// Orientation extracts the sinkless orientation from a weak splitting of B:
// a red edge points from the smaller to the larger ID, a blue edge the
// other way (Figure 1d).
func (si *SinklessInstance) Orientation(colors []int) ([]bool, error) {
	if len(colors) != len(si.Edges) {
		return nil, fmt.Errorf("reduction: %d colors for %d edges", len(colors), len(si.Edges))
	}
	toward := make([]bool, len(si.Edges)) // true: Edges[i][0] → Edges[i][1]
	for i, e := range si.Edges {
		smallerFirst := si.IDs[e[0]] < si.IDs[e[1]]
		if colors[i] == check.Red {
			toward[i] = smallerFirst
		} else {
			toward[i] = !smallerFirst
		}
	}
	return toward, nil
}

// WeakSplitSolver abstracts the weak splitting oracle used by the
// reduction.
type WeakSplitSolver func(b *graph.Bipartite) (*core.Result, error)

// SinklessViaWeakSplit runs the full Figure 1 pipeline: build B, solve weak
// splitting on it, read off the orientation, and verify that no node is a
// sink. The construction needs δ_G ≥ 5 so that δ_B ≥ 3 (Theorem 2.10); for
// δ_G ≥ 24 the resulting instance satisfies δ_B ≥ 12 = 6·r and the
// deterministic Theorem 2.7 solver applies.
func SinklessViaWeakSplit(g *graph.Graph, ids []int, solve WeakSplitSolver) ([]bool, *SinklessInstance, *core.Result, error) {
	if d := g.MinDeg(); d < 5 {
		return nil, nil, nil, fmt.Errorf("reduction: sinkless construction needs δ_G ≥ 5, have %d", d)
	}
	si, err := BuildSinklessInstance(g, ids)
	if err != nil {
		return nil, nil, nil, err
	}
	if r := si.B.Rank(); r > 2 {
		return nil, nil, nil, fmt.Errorf("reduction: instance rank %d > 2 (construction bug)", r)
	}
	res, err := solve(si.B)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("reduction: weak splitting oracle: %w", err)
	}
	toward, err := si.Orientation(res.Colors)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := check.SinklessOrientation(g, si.Edges, toward, 1); err != nil {
		return nil, nil, nil, fmt.Errorf("reduction: orientation self-check: %w", err)
	}
	return toward, si, res, nil
}

// DefaultSinklessSolver picks the strongest applicable solver for the
// Figure 1 instances: Theorem 2.7 when δ_B ≥ 6·r (i.e. δ_G ≥ 24ish),
// otherwise the randomized Theorem 1.2 algorithm.
func DefaultSinklessSolver(src *prob.Source) WeakSplitSolver {
	return func(b *graph.Bipartite) (*core.Result, error) {
		if b.MinDegU() >= 6*b.Rank() {
			return core.SixRSplit(b, core.SixROptions{})
		}
		return core.RandomizedSplit(b, src, core.RandomizedOptions{})
	}
}

// UniformSplitOptions tune UniformSplit and ColoringViaSplitting.
type UniformSplitOptions struct {
	// Eps is the splitting accuracy (the paper's Lemma 4.1 uses 1/log²n;
	// the default 0.15 makes the derandomization's Chernoff precondition
	// reachable at simulation scale — see EXPERIMENTS.md E10 for the effect
	// on the color count).
	Eps float64
	// MinDeg is the degree below which a node carries no splitting
	// constraint (the Remark's clique gadget raises low degrees instead;
	// zero derives the smallest degree supporting the potential).
	MinDeg int
	// Source enables the randomized fallback when the derandomization
	// precondition fails.
	Source *prob.Source
}

func (o *UniformSplitOptions) normalize(n int) {
	if o.Eps <= 0 {
		o.Eps = 0.15
	}
	if o.MinDeg <= 0 {
		o.MinDeg = int(math.Ceil(2 * math.Log(2*float64(max(2, n))) / (o.Eps * o.Eps)))
	}
}

// UniformSplit two-colors the nodes of g so that every node of degree
// ≥ opts.MinDeg has between (1/2−ε)d and (1/2+ε)d neighbors of each color
// (Section 4.1), using the derandomized Chernoff potential, with a
// randomized fallback when the potential precondition fails.
func UniformSplit(g *graph.Graph, opts UniformSplitOptions) ([]int, bool, error) {
	n := g.N()
	opts.normalize(n)
	vtc := make([][]int32, n)
	var degs []int
	consIdx := make([]int32, n)
	for v := 0; v < n; v++ {
		consIdx[v] = -1
		if g.Deg(v) >= opts.MinDeg {
			consIdx[v] = int32(len(degs))
			degs = append(degs, g.Deg(v))
		}
	}
	for v := 0; v < n; v++ {
		for _, w := range g.Neighbors(v) {
			if consIdx[w] >= 0 {
				vtc[v] = append(vtc[v], consIdx[w])
			}
		}
	}
	if len(degs) == 0 {
		// No constrained nodes: any coloring works.
		return make([]int, n), true, nil
	}
	est := derand.NewUniformSplitEstimator(vtc, degs, opts.Eps)
	if est.Cost() < 1 {
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		labels, err := derand.Greedy(est, order)
		if err == nil {
			if err := check.UniformSplit(g, labels, opts.Eps, opts.MinDeg); err != nil {
				return nil, true, fmt.Errorf("reduction: uniform split self-check: %w", err)
			}
			return labels, true, nil
		}
	}
	if opts.Source == nil {
		return nil, false, fmt.Errorf("reduction: derandomization precondition failed and no randomness provided (MinDeg=%d)", opts.MinDeg)
	}
	for attempt := 0; attempt < 64; attempt++ {
		src := opts.Source.Fork(uint64(attempt))
		labels := make([]int, n)
		for v := range labels {
			labels[v] = int(src.Node(v).Uint64() & 1)
		}
		if check.UniformSplit(g, labels, opts.Eps, opts.MinDeg) == nil {
			return labels, false, nil
		}
	}
	return nil, false, fmt.Errorf("reduction: uniform split failed 64 randomized attempts")
}

// ColoringResult is the outcome of ColoringViaSplitting.
type ColoringResult struct {
	Colors []int
	Num    int // total palette size actually used
	Parts  int // number of parts after the recursive splitting
	Trace  core.Trace
}

// ColoringViaSplitting is Lemma 4.1: apply the uniform splitting algorithm
// recursively log Δ − log log n times, then color the resulting low-degree
// parts with disjoint palettes. The paper obtains (1+o(1))Δ colors; with
// finite parameters the measured palette is (1+ε)^r·Δ + O(parts·d₀), which
// experiment E10 reports against Δ.
func ColoringViaSplitting(g *graph.Graph, eng local.Engine, opts UniformSplitOptions) (*ColoringResult, error) {
	if eng == nil {
		eng = local.SequentialEngine{}
	}
	n := g.N()
	opts.normalize(n)
	res := &ColoringResult{}
	maxDeg := g.MaxDeg()
	loglogTarget := prob.CeilLog2(prob.CeilLog2(max(4, n)) + 1)
	levels := prob.FloorLog2(max(1, maxDeg)) - loglogTarget
	if levels < 0 {
		levels = 0
	}
	part := make([]int, n) // current part label per node
	parts := 1
	for level := 0; level < levels; level++ {
		// Stop early once every part is already below the constraint
		// threshold: further splits are no-ops.
		members := groupByPart(part, parts)
		splitAny := false
		maxLevelRounds := 0
		for p := 0; p < parts; p++ {
			if len(members[p]) == 0 {
				continue
			}
			sub, orig := g.InducedSubgraph(members[p])
			if sub.MaxDeg() < opts.MinDeg {
				// Entire part unconstrained; it keeps its label (the new
				// label is 2·p, i.e. "all red").
				for _, v := range members[p] {
					part[v] = 2 * part[v]
				}
				continue
			}
			partOpts := opts
			if opts.Source != nil {
				partOpts.Source = opts.Source.Fork(uint64(level*10000 + p))
			}
			labels, det, err := UniformSplit(sub, partOpts)
			if err != nil {
				return nil, fmt.Errorf("reduction: level %d part %d: %w", level, p, err)
			}
			if !det {
				res.Trace.Note("level %d part %d used the randomized fallback", level, p)
			}
			for sv, lab := range labels {
				part[orig[sv]] = 2*part[orig[sv]] + lab
			}
			splitAny = true
			// The derandomized split is an SLOCAL pass compiled over the
			// part; all parts run in parallel, so charge the max (a single
			// constant-round phase for the randomized variant).
			if r := 1; r > maxLevelRounds {
				maxLevelRounds = r
			}
		}
		parts *= 2
		res.Trace.Add(fmt.Sprintf("split-level-%d", level), maxLevelRounds)
		if !splitAny {
			break
		}
	}
	// Color every part with its own palette.
	members := groupByPart(part, parts)
	colors := make([]int, n)
	offset := 0
	usedParts := 0
	maxPartRounds := 0
	for p := 0; p < parts; p++ {
		if len(members[p]) == 0 {
			continue
		}
		usedParts++
		sub, orig := g.InducedSubgraph(members[p])
		colRes, err := coloring.DeltaPlusOne(sub, eng, local.Options{})
		if err != nil {
			return nil, fmt.Errorf("reduction: coloring part %d: %w", p, err)
		}
		if colRes.Stats.Rounds > maxPartRounds {
			maxPartRounds = colRes.Stats.Rounds
		}
		for sv, c := range colRes.Colors {
			colors[orig[sv]] = offset + c
		}
		offset += colRes.Num
	}
	res.Trace.Add("per-part-coloring(max)", maxPartRounds)
	res.Colors = colors
	res.Num = offset
	res.Parts = usedParts
	if err := check.ProperColoring(g, colors, offset); err != nil {
		return nil, fmt.Errorf("reduction: Lemma 4.1 self-check: %w", err)
	}
	return res, nil
}

func groupByPart(part []int, parts int) [][]int {
	members := make([][]int, parts)
	for v, p := range part {
		members[p] = append(members[p], v)
	}
	return members
}

// DefectiveSplit computes the defective 2-coloring of footnote 2
// (Section 1.1): every node of degree ≥ the derived threshold ends with at
// most (1/2+ε)·d(v) neighbors of its *own* color — strictly weaker than
// UniformSplit (which bounds both colors from both sides), and the paper
// notes it already suffices for the coloring application. Deterministic via
// the method of conditional expectations; randomized fallback as in
// UniformSplit.
func DefectiveSplit(g *graph.Graph, opts UniformSplitOptions) ([]int, bool, error) {
	n := g.N()
	opts.normalize(n)
	adj := make([][]int32, n)
	anyActive := false
	for v := 0; v < n; v++ {
		adj[v] = g.Neighbors(v)
		if g.Deg(v) >= opts.MinDeg {
			anyActive = true
		}
	}
	if !anyActive {
		return make([]int, n), true, nil
	}
	est := derand.NewDefectiveSplitEstimator(adj, opts.MinDeg, opts.Eps)
	if est.Cost() < 1 {
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		labels, err := derand.Greedy(est, order)
		if err == nil {
			if err := check.DefectiveSplit(g, labels, opts.Eps, opts.MinDeg); err != nil {
				return nil, true, fmt.Errorf("reduction: defective split self-check: %w", err)
			}
			return labels, true, nil
		}
	}
	if opts.Source == nil {
		return nil, false, fmt.Errorf("reduction: defective derandomization precondition failed and no randomness provided (MinDeg=%d)", opts.MinDeg)
	}
	for attempt := 0; attempt < 64; attempt++ {
		src := opts.Source.Fork(uint64(attempt))
		labels := make([]int, n)
		for v := range labels {
			labels[v] = int(src.Node(v).Uint64() & 1)
		}
		if check.DefectiveSplit(g, labels, opts.Eps, opts.MinDeg) == nil {
			return labels, false, nil
		}
	}
	return nil, false, fmt.Errorf("reduction: defective split failed 64 randomized attempts")
}
