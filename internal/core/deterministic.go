package core

import (
	"fmt"
	"math"

	"repro/internal/check"
	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/prob"
)

// DeterministicOptions tune DeterministicSplit (Theorem 2.5); the zero value
// picks the paper's parameters with the deterministic approximate splitter.
type DeterministicOptions struct {
	// Splitter selects the degree-splitting substrate inside DRR-I
	// (default SplitterApproxDet, the deterministic choice).
	Splitter SplitterKind
	// Source is only needed when Splitter == SplitterApproxRand.
	Source *prob.Source
	// Engine runs the LOCAL phases (default sequential).
	Engine local.Engine
}

func (o *DeterministicOptions) normalize() {
	if o.Splitter == 0 {
		o.Splitter = SplitterApproxDet
	}
	if o.Engine == nil {
		o.Engine = local.SequentialEngine{}
	}
}

// DeterministicSplit is Theorem 1.1 / Theorem 2.5, the paper's main
// deterministic algorithm: if δ ≤ 48·log n it runs Lemma 2.2 directly;
// otherwise it first shrinks the instance with k = ⌊log(δ/(12·log n))⌋
// iterations of Degree-Rank Reduction I at accuracy ε = min(1/k, 1/3) —
// bringing the rank down to O((r/δ)·log n) while keeping δ ≥ 2·log n — and
// then runs Lemma 2.2 on the residual graph. The computed splitting of the
// residual graph is a weak splitting of the original, because the residual
// edge set is a subset.
//
// Round complexity: O((r/δ)·log² n + log³ n·(log log n)^1.1).
//
// Robustness: the approximate splitter guarantees its discrepancy only in
// expectation (DESIGN.md substitution 1), so if the residual instance ever
// misses the δ ≥ 2·log n precondition, the algorithm falls back to
// Lemma 2.2 on the original instance (valid, just slower) and records the
// fallback in the trace.
func DeterministicSplit(b *graph.Bipartite, opts DeterministicOptions) (*Result, error) {
	opts.normalize()
	logn := log2n(b)
	delta := b.MinDegU()
	if float64(delta) < 2*logn {
		return nil, fmt.Errorf("core: Theorem 2.5 requires δ ≥ 2·log n = %.1f, have %d", 2*logn, delta)
	}
	if float64(delta) <= 48*logn {
		res, err := TruncatedDerandomized(b, opts.Engine)
		if err != nil {
			return nil, fmt.Errorf("core: Theorem 2.5 (small-δ branch): %w", err)
		}
		res.Trace.Note("small-δ branch: δ = %d ≤ 48·log n", delta)
		return res, nil
	}

	k := int(math.Floor(prob.Log2(float64(delta) / (12 * logn))))
	eps := math.Min(1.0/float64(k), 1.0/3.0)
	drr, err := DegreeRankReductionI(b, k, eps, opts.Splitter, opts.Source)
	if err != nil {
		return nil, fmt.Errorf("core: Theorem 2.5 DRR-I: %w", err)
	}

	target := drr.B
	var res *Result
	if float64(target.MinDegU()) >= 2*logn {
		res, err = lemma22WithN(target, b.N(), opts.Engine)
		if err == nil {
			res.Trace = mergedTrace(&drr.Trace, &res.Trace)
			res.Trace.Note("DRR-I: k=%d ε=%.3f, rank %d→%d, δ %d→%d",
				k, eps, drr.Ranks[0], drr.Ranks[k], drr.MinDegs[0], drr.MinDegs[k])
		}
	} else {
		err = fmt.Errorf("residual δ = %d < 2·log n", target.MinDegU())
	}
	if err != nil {
		// Fallback: Lemma 2.2 on the original instance.
		res, err = TruncatedDerandomized(b, opts.Engine)
		if err != nil {
			return nil, fmt.Errorf("core: Theorem 2.5 fallback: %w", err)
		}
		res.Trace.Note("fallback to Lemma 2.2 on the original instance")
	}
	if err := check.WeakSplit(b, res.Colors, 0); err != nil {
		return nil, fmt.Errorf("core: Theorem 2.5 self-check: %w", err)
	}
	return res, nil
}

// lemma22WithN runs Lemma 2.2 on a (sub)instance while truncating degrees
// with respect to an ambient node count n (needed when the instance is a
// residual or component of a larger graph).
func lemma22WithN(b *graph.Bipartite, ambientN int, eng local.Engine) (*Result, error) {
	logn := math.Max(1, prob.Log2(float64(max(ambientN, 2))))
	keep := int(math.Ceil(2 * logn))
	if md := b.MinDegU(); md < keep {
		return nil, fmt.Errorf("core: Lemma 2.2 requires δ ≥ %d, have %d", keep, md)
	}
	h := graph.TruncateLeftDegrees(b, keep)
	res, err := BasicDerandomized(h, eng)
	if err != nil {
		return nil, err
	}
	if err := check.WeakSplit(b, res.Colors, 0); err != nil {
		return nil, fmt.Errorf("core: Lemma 2.2 self-check: %w", err)
	}
	return res, nil
}

func mergedTrace(first *Trace, second *Trace) Trace {
	var t Trace
	t.Merge("", first)
	t.Merge("", second)
	return t
}
