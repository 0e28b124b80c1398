// Package multicolor implements the relaxed splitting variants of Section 3
// and their completeness machinery:
//
//   - C-weak multicolor splitting (Definition 1.3): color V with
//     C ≥ 2·log n colors so every large-degree constraint sees at least
//     2·log n distinct colors. Theorem 3.2 proves it P-RLOCAL-complete; the
//     hardness direction reduces weak splitting to it, and this package
//     implements that reduction as an executable pipeline
//     (WeakSplitViaCover).
//   - (C,λ)-multicolor splitting (Definition 1.2): color V with C colors so
//     every constraint has at most ⌈λ·deg⌉ neighbors of each color.
//     Theorem 3.3 proves completeness via an iterated virtual-node
//     refinement that turns a (C,λ)-splitter into a weak multicolor
//     splitter (CoverViaCLambda).
//
// Every algorithm self-verifies with package check.
package multicolor

import (
	"fmt"
	"math"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/derand"
	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/prob"
	"repro/internal/slocal"
)

// Result is a multicolor splitting with cost accounting.
type Result struct {
	Colors  []int // Colors[v] ∈ [0, Palette)
	Palette int
	Trace   core.Trace
}

// CoverParams fixes the parameters of a C-weak multicolor splitting
// instance, following Definition 1.3 with n = |U|+|V|.
type CoverParams struct {
	// Palette is the number of colors C (≥ NeedColors).
	Palette int
	// NeedColors is how many distinct colors each large constraint must
	// see: ⌈2·log n⌉ in the paper.
	NeedColors int
	// MinDeg is the degree threshold above which the constraint applies:
	// 2(log n + 1)·ln n in the paper.
	MinDeg int
}

// DefaultCoverParams returns the paper's parameters for instance b.
func DefaultCoverParams(b *graph.Bipartite) CoverParams {
	n := float64(b.N())
	if n < 2 {
		n = 2
	}
	logn := prob.Log2(n)
	need := int(math.Ceil(2 * logn))
	return CoverParams{
		Palette:    need,
		NeedColors: need,
		MinDeg:     int(math.Ceil((2*logn + 1) * math.Log(n))),
	}
}

// CoverRandomized is the zero-round randomized algorithm from the
// membership proof of Theorem 3.2: every variable picks one of
// ⌈2·log n⌉ colors uniformly at random; constraints of degree
// ≥ (2·log n+1)·ln n see all colors in expectation with slack. The output
// is verified; on failure an error is returned so the caller can retry.
func CoverRandomized(b *graph.Bipartite, p CoverParams, src *prob.Source) (*Result, error) {
	if p.Palette < p.NeedColors {
		return nil, fmt.Errorf("multicolor: palette %d < required distinct colors %d", p.Palette, p.NeedColors)
	}
	colors := make([]int, b.NV())
	sample := p.NeedColors // sample from the first ⌈2·log n⌉ colors
	for v := range colors {
		colors[v] = int(src.Node(v).Uint64() % uint64(sample))
	}
	res := &Result{Colors: colors, Palette: p.Palette}
	res.Trace.Add("cover-randomized", 0)
	if err := check.MulticolorCover(b, colors, p.Palette, p.MinDeg, p.NeedColors); err != nil {
		return res, fmt.Errorf("multicolor: randomized cover failed verification (retry with a new seed): %w", err)
	}
	return res, nil
}

// CoverRandomizedRetry retries CoverRandomized with forked seeds.
func CoverRandomizedRetry(b *graph.Bipartite, p CoverParams, src *prob.Source, attempts int) (*Result, error) {
	var lastErr error
	for i := 0; i < attempts; i++ {
		res, err := CoverRandomized(b, p, src.Fork(uint64(i)))
		if err == nil {
			return res, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("multicolor: %d attempts failed: %w", attempts, lastErr)
}

// CoverDerandomized derandomizes the zero-round algorithm with the method
// of conditional expectations, compiled through a B² coloring exactly as in
// Lemma 2.1 ([GHK16, Thm III.1] + [GHK17a, Prop 3.2]). The potential forces
// every constraint of degree ≥ MinDeg to see all sampled colors, which is
// stronger than the required NeedColors distinct ones.
func CoverDerandomized(b *graph.Bipartite, p CoverParams, eng local.Engine) (*Result, error) {
	if eng == nil {
		eng = local.SequentialEngine{}
	}
	if p.Palette < p.NeedColors {
		return nil, fmt.Errorf("multicolor: palette %d < required distinct colors %d", p.Palette, p.NeedColors)
	}
	res := &Result{Palette: p.Palette}
	// Restrict the potential to the constrained nodes: unconstrained
	// low-degree constraints must not pollute the precondition.
	vtc := make([][]int32, b.NV())
	var bigU []int32
	uIndex := make([]int32, b.NU())
	for u := 0; u < b.NU(); u++ {
		uIndex[u] = -1
		if b.DegU(u) >= p.MinDeg {
			uIndex[u] = int32(len(bigU))
			bigU = append(bigU, int32(u))
		}
	}
	degs := make([]int, len(bigU))
	for i, u := range bigU {
		degs[i] = b.DegU(int(u))
	}
	for v := 0; v < b.NV(); v++ {
		for _, u := range b.NbrV(v) {
			if uIndex[u] >= 0 {
				vtc[v] = append(vtc[v], uIndex[u])
			}
		}
	}
	colors, num, err := core.ConflictColoring(b, 1, eng, &res.Trace, "B2-coloring", 2)
	if err != nil {
		return nil, err
	}
	est := derand.NewMulticolorCoverEstimator(vtc, degs, p.NeedColors)
	compiled, err := slocal.CompileGreedy(est, colors, num, 2)
	if err != nil {
		return nil, fmt.Errorf("multicolor: derandomization: %w", err)
	}
	res.Trace.Add("slocal-greedy", compiled.Rounds)
	res.Colors = compiled.Labels
	if err := check.MulticolorCover(b, res.Colors, p.Palette, p.MinDeg, p.NeedColors); err != nil {
		return nil, fmt.Errorf("multicolor: derandomized cover self-check: %w", err)
	}
	return res, nil
}

// WeakSplitViaCover is the hardness direction of Theorem 3.2 as an
// executable pipeline: given any C-weak multicolor splitting of B, every
// constraint keeps ⌈2·log n⌉ edges to distinctly-colored neighbors, forming
// B′. On B′ the multicolor assignment is a proper coloring of B′² on the
// variable side (two variables sharing a constraint have distinct colors),
// so the SLOCAL(2) derandomized weak splitter compiles in O(C) LOCAL rounds
// without computing a fresh coloring — this is exactly how a multicolor
// splitting oracle would yield weak splitting, hence P-RLOCAL-completeness.
func WeakSplitViaCover(b *graph.Bipartite, p CoverParams, cover *Result) (*core.Result, error) {
	need := p.NeedColors
	// Select S(u): the first `need` distinctly-colored neighbors of each u.
	keep := make(map[[2]int32]struct{})
	for u := 0; u < b.NU(); u++ {
		if b.DegU(u) < p.MinDeg {
			// Unconstrained constraints may keep everything; they are not
			// guaranteed ≥ 2·log n distinct colors. Their weak splitting
			// constraint is also waived in the reduced problem.
			continue
		}
		seen := make(map[int]struct{}, need)
		for _, v := range b.NbrU(u) {
			c := cover.Colors[v]
			if _, dup := seen[c]; dup {
				continue
			}
			seen[c] = struct{}{}
			keep[[2]int32{int32(u), v}] = struct{}{}
			if len(seen) == need {
				break
			}
		}
		if len(seen) < need {
			return nil, fmt.Errorf("multicolor: constraint %d has only %d distinct colors, need %d", u, len(seen), need)
		}
	}
	bp := b.SubgraphKeepEdges(func(u, v int) bool {
		_, ok := keep[[2]int32{int32(u), int32(v)}]
		return ok
	})
	// The cover colors must properly color B′² on the variable side.
	conflict := bp.VPower(1)
	if err := slocal.CheckConflictColoring(conflict, cover.Colors); err != nil {
		return nil, fmt.Errorf("multicolor: cover colors are not a B′² coloring: %w", err)
	}
	vtc := make([][]int32, bp.NV())
	for v := range vtc {
		vtc[v] = bp.NbrV(v)
	}
	// Only constraints that kept edges carry the weak splitting requirement.
	var consDegs []int
	consIdx := make([]int32, bp.NU())
	for u := 0; u < bp.NU(); u++ {
		consIdx[u] = -1
		if bp.DegU(u) > 0 {
			consIdx[u] = int32(len(consDegs))
			consDegs = append(consDegs, bp.DegU(u))
		}
	}
	for v := range vtc {
		mapped := make([]int32, 0, len(vtc[v]))
		for _, u := range vtc[v] {
			if consIdx[u] >= 0 {
				mapped = append(mapped, consIdx[u])
			}
		}
		vtc[v] = mapped
	}
	est := derand.NewWeakSplitEstimator(vtc, consDegs)
	compiled, err := slocal.CompileGreedy(est, cover.Colors, cover.Palette, 2)
	if err != nil {
		return nil, fmt.Errorf("multicolor: weak splitting on B′: %w", err)
	}
	out := &core.Result{Colors: compiled.Labels}
	out.Trace.Merge("", &cover.Trace)
	out.Trace.Add("weak-split-on-Bprime", compiled.Rounds)
	if err := check.WeakSplit(b, out.Colors, p.MinDeg); err != nil {
		return nil, fmt.Errorf("multicolor: reduction self-check: %w", err)
	}
	return out, nil
}
