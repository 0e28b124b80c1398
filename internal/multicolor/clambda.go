package multicolor

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/derand"
	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/prob"
	"repro/internal/slocal"
)

// CLambdaParams fixes the parameters of a (C,λ)-multicolor splitting
// instance (Definition 1.2).
type CLambdaParams struct {
	Palette int     // C ≥ 2
	Lambda  float64 // λ ≥ 2/C
	// MinDeg is the degree threshold above which the load constraint
	// applies (the completeness theorems need deg ≥ (α/λ)·ln n).
	MinDeg int
}

// workColors returns C′, the number of colors the randomized algorithm of
// Theorem 3.3 actually samples from: 3 if λ ≥ 2/3 and ⌈3/λ⌉ otherwise,
// clamped to the palette (C′ ≤ C holds under the theorem's hypotheses; for
// C = 2 the paper's λ ≥ 0.95 branch uses both colors).
func (p CLambdaParams) workColors() int {
	var c int
	switch {
	case p.Palette <= 2:
		c = 2
	case p.Lambda >= 2.0/3.0:
		c = 3
	default:
		c = int(math.Ceil(3 / p.Lambda))
	}
	if c > p.Palette {
		c = p.Palette
	}
	return c
}

// CLambdaRandomized is the zero-round randomized algorithm from the
// membership proof of Theorem 3.3 (inequality (2)): every variable picks
// one of C′ colors uniformly at random. The output is verified against
// Definition 1.2.
func CLambdaRandomized(b *graph.Bipartite, p CLambdaParams, src *prob.Source) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	cw := p.workColors()
	colors := make([]int, b.NV())
	for v := range colors {
		colors[v] = int(src.Node(v).Uint64() % uint64(cw))
	}
	res := &Result{Colors: colors, Palette: p.Palette}
	res.Trace.Add("clambda-randomized", 0)
	if err := check.CLambdaSplit(b, colors, p.Palette, p.Lambda, p.MinDeg); err != nil {
		return res, fmt.Errorf("multicolor: randomized (C,λ) failed verification (retry with a new seed): %w", err)
	}
	return res, nil
}

// CLambdaRandomizedRetry retries CLambdaRandomized with forked seeds.
func CLambdaRandomizedRetry(b *graph.Bipartite, p CLambdaParams, src *prob.Source, attempts int) (*Result, error) {
	var lastErr error
	for i := 0; i < attempts; i++ {
		res, err := CLambdaRandomized(b, p, src.Fork(uint64(i)))
		if err == nil {
			return res, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("multicolor: %d attempts failed: %w", attempts, lastErr)
}

// CLambdaDerandomized derandomizes the zero-round algorithm with the
// Chernoff/MGF pessimistic estimator, compiled through a B² coloring.
func CLambdaDerandomized(b *graph.Bipartite, p CLambdaParams, eng local.Engine) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if eng == nil {
		eng = local.SequentialEngine{}
	}
	res := &Result{Palette: p.Palette}
	cw := p.workColors()
	vtc, degs, _ := constrainedRefs(b, p.MinDeg)
	colors, num, err := core.ConflictColoring(b, 1, eng, &res.Trace, "B2-coloring", 2)
	if err != nil {
		return nil, err
	}
	est := derand.NewCLambdaEstimator(vtc, degs, cw, p.Lambda)
	compiled, err := slocal.CompileGreedy(est, colors, num, 2)
	if err != nil {
		return nil, fmt.Errorf("multicolor: derandomization: %w", err)
	}
	res.Trace.Add("slocal-greedy", compiled.Rounds)
	res.Colors = compiled.Labels
	if err := check.CLambdaSplit(b, res.Colors, p.Palette, p.Lambda, p.MinDeg); err != nil {
		return nil, fmt.Errorf("multicolor: derandomized (C,λ) self-check: %w", err)
	}
	return res, nil
}

func (p CLambdaParams) validate() error {
	if p.Palette < 2 {
		return fmt.Errorf("multicolor: palette %d < 2", p.Palette)
	}
	if p.Lambda < 2/float64(p.Palette) || p.Lambda > 1 {
		return fmt.Errorf("multicolor: λ = %v outside [2/C, 1]", p.Lambda)
	}
	return nil
}

// constrainedRefs builds variable→constraint references restricted to
// constraints of degree ≥ minDeg.
func constrainedRefs(b *graph.Bipartite, minDeg int) (vtc [][]int32, degs []int, bigU []int32) {
	uIndex := make([]int32, b.NU())
	for u := 0; u < b.NU(); u++ {
		uIndex[u] = -1
		if b.DegU(u) >= minDeg {
			uIndex[u] = int32(len(bigU))
			bigU = append(bigU, int32(u))
			degs = append(degs, b.DegU(u))
		}
	}
	vtc = make([][]int32, b.NV())
	for v := 0; v < b.NV(); v++ {
		for _, u := range b.NbrV(v) {
			if uIndex[u] >= 0 {
				vtc[v] = append(vtc[v], uIndex[u])
			}
		}
	}
	return vtc, degs, bigU
}

// CLambdaSolver abstracts "an oracle for (C,λ)-multicolor splitting" for
// the Theorem 3.3 reduction: it must color the variables of the given
// instance with at most params.Palette colors meeting Definition 1.2.
type CLambdaSolver func(b *graph.Bipartite, p CLambdaParams) (*Result, error)

// CoverViaCLambda is the hardness direction of Theorem 3.3 as an executable
// pipeline: ⌈log_{1/λ}(2·log n)⌉ iterations of virtual-node refinement turn
// a (C,λ)-multicolor splitting oracle into a weak multicolor splitting
// (a (C^i, max(λ^i, 1/(2·log n)))-multicolor splitting whose color classes
// are so small that every large constraint must see ≥ 2·log n distinct
// colors). The per-iteration instance H_i splits each constraint u into one
// virtual constraint per current color class with enough neighbors.
func CoverViaCLambda(b *graph.Bipartite, p CLambdaParams, solve CLambdaSolver) (*Result, int, error) {
	if err := p.validate(); err != nil {
		return nil, 0, err
	}
	if p.Lambda >= 1 {
		return nil, 0, fmt.Errorf("multicolor: reduction needs λ < 1")
	}
	n := float64(b.N())
	if n < 4 {
		n = 4
	}
	logn := prob.Log2(n)
	targetLoad := 1 / (2 * logn)
	iters := int(math.Ceil(math.Log(2*logn) / math.Log(1/p.Lambda)))
	if iters < 1 {
		iters = 1
	}
	// minVirtualDeg is the paper's α·λ·ln n threshold below which a virtual
	// constraint is dropped from H_i (its load is then bounded by the
	// threshold itself rather than by λ·deg); α = 12 keeps the oracle's
	// zero-round success probability high at simulation scale.
	const alpha = 12
	minVirtualDeg := int(math.Ceil(alpha * p.Lambda * math.Log(n)))
	if minVirtualDeg < 2 {
		minVirtualDeg = 2
	}

	cur := make([]int, b.NV()) // current color of each variable
	palette := 1
	var trace core.Trace
	for it := 0; it < iters; it++ {
		// Build H_i: one virtual constraint per (u, color class with ≥
		// minVirtualDeg members).
		type vcons struct {
			nbrs []int32
		}
		var virtual []vcons
		for u := 0; u < b.NU(); u++ {
			if b.DegU(u) < p.MinDeg {
				continue
			}
			byColor := make(map[int][]int32)
			for _, v := range b.NbrU(u) {
				byColor[cur[v]] = append(byColor[cur[v]], v)
			}
			// Iterate color classes in sorted order: map order would make
			// the virtual-constraint numbering of H_i — and everything
			// keyed off those node IDs downstream — vary run to run.
			classes := make([]int, 0, len(byColor))
			for c := range byColor {
				classes = append(classes, c)
			}
			sort.Ints(classes)
			for _, c := range classes {
				if nbrs := byColor[c]; len(nbrs) >= minVirtualDeg {
					virtual = append(virtual, vcons{nbrs: nbrs})
				}
			}
		}
		var edges [][2]int
		for vi, vc := range virtual {
			for _, v := range vc.nbrs {
				edges = append(edges, [2]int{vi, int(v)})
			}
		}
		hi, err := graph.BipartiteFromEdges(len(virtual), b.NV(), edges)
		if err != nil {
			return nil, 0, fmt.Errorf("multicolor: building H_%d: %w", it, err)
		}
		sub, err := solve(hi, CLambdaParams{Palette: p.Palette, Lambda: p.Lambda, MinDeg: minVirtualDeg})
		if err != nil {
			return nil, 0, fmt.Errorf("multicolor: iteration %d oracle: %w", it, err)
		}
		trace.Merge(fmt.Sprintf("iter%d-", it), &sub.Trace)
		// Refine: combine old and new colors.
		for v := range cur {
			cur[v] = cur[v]*p.Palette + sub.Colors[v]
		}
		palette *= p.Palette
	}

	res := &Result{Colors: cur, Palette: palette, Trace: trace}
	res.Trace.Note("reduction: %d iterations, palette %d, target per-class load %.4f·deg",
		iters, palette, targetLoad)
	return res, iters, nil
}
