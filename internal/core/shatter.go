package core

import (
	"fmt"
	"math"

	"repro/internal/check"
	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/prob"
)

// ShatterOutcome is the state after the shattering algorithm of Section 2.4.
type ShatterOutcome struct {
	// Colors[v] ∈ {Red, Blue, Uncolored} after the coloring and uncoloring
	// phases.
	Colors []int
	// UnsatU[u] reports whether constraint u is unsatisfied (lacks a red or
	// a blue neighbor among the colored variables).
	UnsatU []bool
	// Rounds is the LOCAL cost: one round of coloring, one of uncoloring,
	// one of checking.
	Rounds int
}

// Shatter runs the shattering algorithm: every variable node colors itself
// red with probability 1/4, blue with probability 1/4, and stays uncolored
// otherwise; every constraint with more than 3/4 of its neighbors colored
// uncolors all of them. By Lemma 2.9, a constraint of degree Δ ≥ c·log r
// remains unsatisfied with probability ≤ e^{-ηΔ} ≤ (eΔr)^{-8}, even under
// adversarial randomness outside its 2-hop neighborhood.
func Shatter(b *graph.Bipartite, src *prob.Source) *ShatterOutcome {
	out := &ShatterOutcome{
		Colors: make([]int, b.NV()),
		UnsatU: make([]bool, b.NU()),
		Rounds: 3,
	}
	// Coloring phase. Randomness is keyed per variable node id, as a LOCAL
	// node program would do.
	for v := 0; v < b.NV(); v++ {
		switch x := src.NodeFloat64(v); {
		case x < 0.25:
			out.Colors[v] = Red
		case x < 0.5:
			out.Colors[v] = Blue
		default:
			out.Colors[v] = Uncolored
		}
	}
	// Uncoloring phase.
	uncolor := make([]bool, b.NV())
	for u := 0; u < b.NU(); u++ {
		d := b.DegU(u)
		if d == 0 {
			continue
		}
		colored := 0
		for _, v := range b.NbrU(u) {
			if out.Colors[v] != Uncolored {
				colored++
			}
		}
		if 4*colored > 3*d {
			for _, v := range b.NbrU(u) {
				uncolor[v] = true
			}
		}
	}
	for v, un := range uncolor {
		if un {
			out.Colors[v] = Uncolored
		}
	}
	// Satisfaction check: a constraint is settled at its first neighbor of
	// the second color.
	for u := 0; u < b.NU(); u++ {
		var red, blue bool
		for _, v := range b.NbrU(u) {
			switch out.Colors[v] {
			case Red:
				red = true
			case Blue:
				blue = true
			}
			if red && blue {
				break
			}
		}
		out.UnsatU[u] = !(red && blue)
	}
	return out
}

// Residual returns the bipartite graph H induced by the unsatisfied
// constraints and the uncolored variables, with index mappings back to b.
func (s *ShatterOutcome) Residual(b *graph.Bipartite) (h *graph.Bipartite, origU, origV []int) {
	// Both keep lists ascend, so the induced subgraph keeps rows in order.
	var us, vs []int
	for u, bad := range s.UnsatU {
		if bad {
			us = append(us, u)
		}
	}
	for v, c := range s.Colors {
		if c == Uncolored {
			vs = append(vs, v)
		}
	}
	return b.InducedSubgraph(us, vs)
}

// RandomizedOptions tune RandomizedSplit (Theorem 1.2).
type RandomizedOptions struct {
	Engine local.Engine
	// MaxComponentRetries bounds the randomized fallback attempts on
	// components whose parameters miss the deterministic precondition.
	MaxComponentRetries int
}

func (o *RandomizedOptions) normalize() {
	if o.Engine == nil {
		o.Engine = local.SequentialEngine{}
	}
	if o.MaxComponentRetries <= 0 {
		o.MaxComponentRetries = 256
	}
}

// RandomizedSplit is Theorem 1.2: weak splitting in
// O((r/δ)·poly log(r·log n)) randomized rounds when
// δ ≥ c·log(r·log n). The pipeline follows the paper exactly:
//
//  1. if δ > 2·log n the zero-round randomized splitter already succeeds
//     w.h.p.;
//  2. otherwise left degrees are normalized into [δ, 2δ) by virtual
//     splitting (§2.4), which only strengthens the constraints;
//  3. the shattering algorithm colors most variables and satisfies all but
//     a (eΔr)^{-8} fraction of constraints; the residual graph H w.h.p.
//     consists of connected components of size poly(r, log n) with
//     δ_H ≥ δ/4;
//  4. every residual component is solved by the deterministic algorithm
//     (Theorem 2.5 / Lemma 2.2) with n := component size.
//
// Components that miss the deterministic precondition (possible at the
// small scales of a simulation, where "sufficiently large constant c"
// cannot be hidden behind asymptotics) are solved by bounded randomized
// retries; the trace records how often that happened.
func RandomizedSplit(b *graph.Bipartite, src *prob.Source, opts RandomizedOptions) (*Result, error) {
	opts.normalize()
	res := &Result{}
	if b.NV() == 0 {
		if b.NU() > 0 {
			return nil, fmt.Errorf("core: constraints without variables are unsatisfiable")
		}
		return res, nil
	}
	delta := b.MinDegU()
	if delta < 2 {
		return nil, fmt.Errorf("core: Theorem 1.2 needs δ ≥ 2, have %d", delta)
	}
	logn := log2n(b)
	if float64(delta) > 2*logn {
		out, err := ZeroRoundRandomRetry(b, src.Fork(1), 16)
		if err != nil {
			return nil, fmt.Errorf("core: Theorem 1.2 large-δ branch: %w", err)
		}
		out.Trace.Note("δ > 2·log n: zero-round branch")
		return out, nil
	}

	// Degree normalization (§2.4): virtual nodes with degrees in [δ, 2δ).
	vs, err := graph.NormalizeLeftDegrees(b, delta)
	if err != nil {
		return nil, fmt.Errorf("core: Theorem 1.2 normalization: %w", err)
	}
	nb := vs.B
	res.Trace.Add("virtual-split", 0)

	sh := Shatter(nb, src.Fork(2))
	res.Trace.Add("shattering", sh.Rounds)

	colors := append([]int(nil), sh.Colors...)
	h, _, origV := sh.Residual(nb)
	unsat := 0
	for _, bad := range sh.UnsatU {
		if bad {
			unsat++
		}
	}
	res.Trace.Note("shattering: %d/%d constraints unsatisfied, %d/%d variables uncolored",
		unsat, nb.NU(), len(origV), nb.NV())

	if err := solveResidual(h, origV, colors, src.Fork(3), opts, &res.Trace); err != nil {
		return nil, fmt.Errorf("core: Theorem 1.2 residual: %w", err)
	}
	// Any still-uncolored variable is unconstrained; default to red.
	for v := range colors {
		if colors[v] == Uncolored {
			colors[v] = Red
		}
	}
	res.Colors = colors
	if err := check.WeakSplit(b, colors, 0); err != nil {
		return nil, fmt.Errorf("core: Theorem 1.2 self-check: %w", err)
	}
	return res, nil
}

// solveResidual solves weak splitting on every connected component of h and
// writes the colors back through origV. Components run the deterministic
// algorithm when its precondition holds and bounded randomized retries
// otherwise. Component phases run conceptually in parallel, so the trace
// charges the maximum component cost, not the sum.
func solveResidual(h *graph.Bipartite, origV []int, colors []int, src *prob.Source, opts RandomizedOptions, trace *Trace) error {
	if h.NV() == 0 {
		if h.NU() > 0 {
			return fmt.Errorf("unsatisfied constraints with no uncolored variables")
		}
		return nil
	}
	compUs, compVs := h.ConnectedComponents()
	maxRounds := 0
	maxSize := 0
	fallbacks := 0
	for ci := range compUs {
		if size := len(compUs[ci]) + len(compVs[ci]); size > maxSize {
			maxSize = size
		}
		if len(compUs[ci]) == 0 {
			// Unconstrained variables (solveComponent would color them Red
			// in zero rounds): no subgraph, no source.
			for _, hv := range compVs[ci] {
				colors[origV[hv]] = Red
			}
			continue
		}
		sub, _, subOrigV := h.InducedSubgraph(compUs[ci], compVs[ci])
		compRes, usedFallback, err := solveComponent(sub, src.Fork(uint64(ci)), opts)
		if err != nil {
			return fmt.Errorf("component %d (|U|=%d |V|=%d): %w", ci, sub.NU(), sub.NV(), err)
		}
		if usedFallback {
			fallbacks++
		}
		if r := compRes.Trace.Rounds(); r > maxRounds {
			maxRounds = r
		}
		for sv, c := range compRes.Colors {
			colors[origV[subOrigV[sv]]] = c
		}
	}
	trace.Add("residual-components(max)", maxRounds)
	trace.Note("residual: %d components, max size %d, %d randomized fallbacks",
		len(compUs), maxSize, fallbacks)
	return nil
}

// solveComponent solves one residual component: Lemma 2.2/Theorem 2.5 with
// n := component size when the precondition δ ≥ 2·log n_H holds, randomized
// retries otherwise.
func solveComponent(sub *graph.Bipartite, src *prob.Source, opts RandomizedOptions) (*Result, bool, error) {
	if sub.NU() == 0 {
		// Unconstrained variables; any coloring works.
		cols := make([]int, sub.NV())
		return &Result{Colors: cols}, false, nil
	}
	need := 2 * math.Max(1, prob.Log2(float64(sub.N())))
	if float64(sub.MinDegU()) >= need {
		res, err := lemma22WithN(sub, sub.N(), opts.Engine)
		if err == nil {
			return res, false, nil
		}
		// Fall through to randomized retries.
	}
	for attempt := 0; attempt < opts.MaxComponentRetries; attempt++ {
		res, err := ZeroRoundRandom(sub, src.Fork(uint64(attempt)))
		if err == nil {
			res.Trace.Note("randomized fallback succeeded at attempt %d", attempt)
			return res, true, nil
		}
	}
	// Last resort: the centralized backtracking reference (only sensible on
	// the small components shattering produces).
	if sub.N() <= 4096 {
		if res, err := ExhaustiveSplit(sub, 1<<21); err == nil {
			res.Trace.Note("exhaustive reference fallback used")
			return res, true, nil
		}
	}
	return nil, true, fmt.Errorf("no valid splitting after %d randomized attempts (δ=%d, n=%d)",
		opts.MaxComponentRetries, sub.MinDegU(), sub.N())
}
