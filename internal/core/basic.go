package core

import (
	"fmt"
	"math"

	"repro/internal/check"
	"repro/internal/derand"
	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/slocal"
)

// BasicDerandomized is Lemma 2.1: the zero-round randomized splitter is
// derandomized by the method of conditional expectations into an SLOCAL(2)
// algorithm, which is compiled into the LOCAL model with a coloring of B²
// (the conflict graph on variable nodes). It requires δ ≥ 2·log n so that
// the initial potential Σ_u 2·2^{-deg(u)} ≤ 2/n < 1.
//
// Round complexity: O(Δ·r) — the B² coloring has O(Δ·r) colors and
// dominates; our Linial+KW substitute adds a log factor to the coloring
// step (DESIGN.md substitution 2).
func BasicDerandomized(b *graph.Bipartite, eng local.Engine) (*Result, error) {
	res := &Result{}
	if b.NV() == 0 {
		if b.NU() > 0 {
			return nil, fmt.Errorf("core: constraints without variables are unsatisfiable")
		}
		return res, nil
	}
	// Color the conflict graph B² on the variable side; one round on B²
	// costs two rounds on B.
	colors, num, err := ConflictColoring(b, 1, eng, &res.Trace, "B2-coloring", 2)
	if err != nil {
		return nil, err
	}

	vtc, degs := varToCons(b)
	est := derand.NewWeakSplitEstimator(vtc, degs)
	compiled, err := slocal.CompileGreedy(est, colors, num, 2)
	if err != nil {
		return nil, fmt.Errorf("core: derandomization: %w", err)
	}
	res.Trace.Add("slocal-greedy", compiled.Rounds)
	res.Colors = compiled.Labels
	if err := check.WeakSplit(b, res.Colors, 0); err != nil {
		return nil, fmt.Errorf("core: Lemma 2.1 self-check: %w", err)
	}
	return res, nil
}

// TruncatedDerandomized is Lemma 2.2: every constraint node deletes
// arbitrary incident edges down to δ' = ⌈2·log n⌉ and Lemma 2.1 runs on the
// truncated instance H; the weak splitting property is preserved under
// adding the edges back. Requires δ ≥ 2·log n. Round complexity O(r·log n).
func TruncatedDerandomized(b *graph.Bipartite, eng local.Engine) (*Result, error) {
	keep := int(math.Ceil(2 * log2n(b)))
	if md := b.MinDegU(); md < keep {
		return nil, fmt.Errorf("core: Lemma 2.2 requires δ ≥ 2·log n = %d, have %d", keep, md)
	}
	h := graph.TruncateLeftDegrees(b, keep)
	res, err := BasicDerandomized(h, eng)
	if err != nil {
		return nil, fmt.Errorf("core: Lemma 2.2: %w", err)
	}
	res.Trace.Add("truncate", 0) // edge deletion is a local decision
	if err := check.WeakSplit(b, res.Colors, 0); err != nil {
		return nil, fmt.Errorf("core: Lemma 2.2 self-check on original instance: %w", err)
	}
	return res, nil
}
