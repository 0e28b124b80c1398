package splitting

import (
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/mis"
	"repro/internal/multicolor"
	"repro/internal/prob"
	"repro/internal/reduction"
)

// MulticolorResult is a multicolor splitting with its cost trace.
type MulticolorResult = multicolor.Result

// CoverParams parameterizes C-weak multicolor splitting (Definition 1.3);
// DefaultCoverParams fills in the paper's values for an instance.
type CoverParams = multicolor.CoverParams

// CLambdaParams parameterizes (C,λ)-multicolor splitting (Definition 1.2).
type CLambdaParams = multicolor.CLambdaParams

// DefaultCoverParams returns the paper's C-weak multicolor parameters:
// C = ⌈2·log n⌉ colors, constraint threshold (2·log n+1)·ln n.
func DefaultCoverParams(b *Bipartite) CoverParams {
	return multicolor.DefaultCoverParams(b)
}

// MulticolorCover solves C-weak multicolor splitting deterministically
// (membership direction of Theorem 3.2).
func MulticolorCover(b *Bipartite, p CoverParams) (*MulticolorResult, error) {
	return multicolor.CoverDerandomized(b, p, local.SequentialEngine{})
}

// WeakSplitFromCover turns a C-weak multicolor splitting into a weak
// splitting in O(C) extra simulated rounds (hardness direction of
// Theorem 3.2).
func WeakSplitFromCover(b *Bipartite, p CoverParams, cover *MulticolorResult) (*Result, error) {
	return multicolor.WeakSplitViaCover(b, p, cover)
}

// CLambdaSplit solves (C,λ)-multicolor splitting deterministically
// (membership direction of Theorem 3.3).
func CLambdaSplit(b *Bipartite, p CLambdaParams) (*MulticolorResult, error) {
	return multicolor.CLambdaDerandomized(b, p, local.SequentialEngine{})
}

// SinklessOrientation runs the Figure 1 pipeline: encode g as a rank-2 weak
// splitting instance, solve it, and return per-edge directions
// (toward[i] == true orients Edges()[i][0] → Edges()[i][1]). It requires
// δ_G ≥ 5; for δ_G ≥ 24 the deterministic Theorem 2.7 solver is used and
// the reference oracle below that.
func SinklessOrientation(g *Graph, src *Source) (toward []bool, edges [][2]int, err error) {
	solver := func(b *graph.Bipartite) (*core.Result, error) {
		if b.MinDegU() >= 6*b.Rank() {
			return core.SixRSplit(b, core.SixROptions{})
		}
		if res, rerr := core.RandomizedSplit(b, src.Fork(1), core.RandomizedOptions{}); rerr == nil {
			return res, nil
		}
		return core.ExhaustiveSplit(b, 0)
	}
	t, si, _, err := reduction.SinklessViaWeakSplit(g, nil, solver)
	if err != nil {
		return nil, nil, err
	}
	return t, si.Edges, nil
}

// ColoringResult is a proper coloring produced via splitting.
type ColoringResult = reduction.ColoringResult

// ColorViaSplitting is Lemma 4.1: a proper coloring with close to Δ colors
// obtained by recursive uniform splitting; eps controls the per-level
// balance (the paper's ε = 1/log²n gives (1+o(1))Δ asymptotically).
func ColorViaSplitting(g *Graph, eps float64, src *Source) (*ColoringResult, error) {
	return reduction.ColoringViaSplitting(g, local.SequentialEngine{},
		reduction.UniformSplitOptions{Eps: eps, Source: src})
}

// MISResult is a maximal independent set with its cost trace.
type MISResult = mis.Result

// MISViaSplitting is Lemma 4.2: an MIS computed by heavy-node elimination
// through repeated splitting.
func MISViaSplitting(g *Graph, src *Source) (*MISResult, error) {
	return mis.ViaHeavyElimination(g, src, mis.HeavyEliminationOptions{})
}

// MISLuby is Luby's randomized MIS, run as a LOCAL node program.
func MISLuby(g *Graph, src *Source) (*MISResult, error) {
	return mis.Luby(g, src)
}

// RandomRegularGraph returns a random d-regular simple graph.
func RandomRegularGraph(n, d int, src *prob.Source) (*Graph, error) {
	return graph.RandomRegular(n, d, src.Rand())
}

// RandomGraphGNP returns an Erdős–Rényi G(n, p) graph.
func RandomGraphGNP(n int, p float64, src *prob.Source) *Graph {
	return graph.RandomGraph(n, p, src.Rand())
}

// EdgeColoringResult is a proper edge coloring produced via edge splitting.
type EdgeColoringResult = reduction.EdgeColoringResult

// EdgeColorViaSplitting reproduces the Section 1.1 pipeline of [GS17] that
// motivated the paper's vertex splitting program: repeated edge splitting
// followed by per-class greedy coloring, using fewer than 2Δ colors.
func EdgeColorViaSplitting(g *Graph, src *Source) (*EdgeColoringResult, error) {
	return reduction.EdgeColoringViaSplitting(g, 0, src)
}

// DefectiveSplit computes the defective 2-coloring of footnote 2: every
// constrained node ends with at most (1/2+ε)·d(v) neighbors of its own
// color — the weaker-than-splitting requirement the paper notes already
// suffices for the coloring application.
func DefectiveSplit(g *Graph, eps float64, src *Source) ([]int, error) {
	labels, _, err := reduction.DefectiveSplit(g, reduction.UniformSplitOptions{Eps: eps, Source: src})
	return labels, err
}
