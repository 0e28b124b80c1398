package core

import (
	"fmt"
	"math"

	"repro/internal/check"
	"repro/internal/derand"
	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/prob"
	"repro/internal/slocal"
)

// Lemma51Holds checks the conclusion of Lemma 5.1 on a shattering outcome:
// the residual graph H (unsatisfied constraints + uncolored variables) has
// δ_H ≥ 6·r_H. It returns the residual parameters for reporting.
func Lemma51Holds(b *graph.Bipartite, sh *ShatterOutcome) (deltaH, rankH int, ok bool) {
	h, _, _ := sh.Residual(b)
	if h.NU() == 0 {
		return 0, h.Rank(), true // nothing unsatisfied: vacuously fine
	}
	deltaH, rankH = h.MinDegU(), h.Rank()
	return deltaH, rankH, deltaH >= 6*rankH
}

// HighGirthRandomized is Theorem 5.3: on bipartite graphs of girth ≥ 10
// with δ ≥ c·√(ln(Δ·r·ln n)) and Δ ≥ c'·ln r, run the shattering algorithm;
// by Lemma 5.1 the residual graph satisfies δ_H ≥ 6·r_H w.h.p., so every
// residual component is solved by Theorem 2.7 in
// O(Δ²r² + polylog(Δ·r·log n)) rounds. Shattering attempts whose residual
// violates Lemma 5.1 are retried with fresh randomness (each retry succeeds
// w.h.p.).
func HighGirthRandomized(b *graph.Bipartite, src *prob.Source, attempts int) (*Result, error) {
	if attempts <= 0 {
		attempts = 8
	}
	if !b.AsGraph().GirthAtLeast(10) {
		return nil, fmt.Errorf("core: Theorem 5.3 requires girth ≥ 10, have %d", b.Girth())
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		sh := Shatter(b, src.Fork(uint64(i)))
		if dH, rH, ok := Lemma51Holds(b, sh); !ok {
			lastErr = fmt.Errorf("residual has δ_H=%d < 6·r_H=%d", dH, 6*rH)
			continue
		}
		res, err := finishHighGirth(b, sh.Colors, sh.UnsatU, src.Fork(uint64(1000+i)))
		if err != nil {
			lastErr = err
			continue
		}
		res.Trace.Add("shattering", sh.Rounds)
		if i > 0 {
			res.Trace.Note("Lemma 5.1 held after %d retries", i)
		}
		return res, nil
	}
	return nil, fmt.Errorf("core: Theorem 5.3 failed after %d attempts: %w", attempts, lastErr)
}

// finishHighGirth completes a (possibly derandomized) shattering outcome:
// solve every residual component with Theorem 2.7 and fill in the colors.
func finishHighGirth(b *graph.Bipartite, trits []int, unsatU []bool, src *prob.Source) (*Result, error) {
	colors := append([]int(nil), trits...)
	var us, vs []int
	for u, bad := range unsatU {
		if bad {
			us = append(us, u)
		}
	}
	for v, c := range colors {
		if c == Uncolored {
			vs = append(vs, v)
		}
	}
	h, _, origV := b.InducedSubgraph(us, vs)
	res := &Result{}
	compUs, compVs := h.ConnectedComponents()
	maxRounds := 0
	for ci := range compUs {
		sub, _, subOrigV := h.InducedSubgraph(compUs[ci], compVs[ci])
		var compRes *Result
		var err error
		if sub.NU() == 0 {
			compRes = &Result{Colors: make([]int, sub.NV())}
		} else {
			var compSrc *prob.Source
			if src != nil {
				compSrc = src.Fork(uint64(ci))
			}
			compRes, err = SixRSplit(sub, SixROptions{Source: compSrc})
			if err != nil {
				return nil, fmt.Errorf("component %d via Theorem 2.7: %w", ci, err)
			}
		}
		if r := compRes.Trace.Rounds(); r > maxRounds {
			maxRounds = r
		}
		for sv, c := range compRes.Colors {
			colors[origV[subOrigV[sv]]] = c
		}
	}
	res.Trace.Add("residual-components(max)", maxRounds)
	for v := range colors {
		if colors[v] == Uncolored {
			colors[v] = Red
		}
	}
	res.Colors = colors
	if err := check.WeakSplit(b, colors, 0); err != nil {
		return nil, fmt.Errorf("high-girth self-check: %w", err)
	}
	return res, nil
}

// HighGirthDeterministic is Theorem 5.2: the shattering algorithm is a
// 1-round randomized algorithm with checking radius 1, so by
// [GHK16, Thm III.1] it derandomizes into an SLOCAL(4) algorithm, compiled
// into LOCAL with a coloring of B⁴ in O(Δ²r² + polylog n) rounds. The
// pessimistic estimator drives the conclusion of Lemma 5.1 directly: for
// every variable v, the MGF bound on Pr[≥ ⌊δ/24⌋ unsatisfied neighbors]
// (girth ≥ 10 makes the per-neighbor events independent). Afterwards the
// residual satisfies δ_H ≥ 6·r_H and Theorem 2.7 finishes deterministically.
func HighGirthDeterministic(b *graph.Bipartite, eng local.Engine) (*Result, error) {
	if eng == nil {
		eng = local.SequentialEngine{}
	}
	if !b.AsGraph().GirthAtLeast(10) {
		return nil, fmt.Errorf("core: Theorem 5.2 requires girth ≥ 10, have %d", b.Girth())
	}
	if b.NV() == 0 {
		if b.NU() > 0 {
			return nil, fmt.Errorf("core: constraints without variables are unsatisfiable")
		}
		return &Result{}, nil
	}
	res := &Result{}

	// Color B⁴ (distance-4 conflict graph on variables): SLOCAL(4) compile.
	colors, num, err := ConflictColoring(b, 2, eng, &res.Trace, "B4-coloring", 4)
	if err != nil {
		return nil, err
	}

	est := newShatterEstimator(b)
	compiled, err := slocal.CompileGreedy(est, colors, num, 4)
	if err != nil {
		return nil, fmt.Errorf("core: shattering derandomization: %w", err)
	}
	res.Trace.Add("slocal-derandomized-shattering", compiled.Rounds)

	// Map the estimator's trit alphabet {0,1,2} to the coloring convention
	// {Red, Blue, Uncolored}.
	initial := make([]int, len(compiled.Labels))
	for v, x := range compiled.Labels {
		switch x {
		case tritRed:
			initial[v] = Red
		case tritBlue:
			initial[v] = Blue
		default:
			initial[v] = Uncolored
		}
	}
	// Apply the (now deterministic) uncoloring phase and compute the
	// unsatisfied set.
	trits, unsatU := applyUncoloring(b, initial)
	sh := &ShatterOutcome{Colors: trits, UnsatU: unsatU}
	if dH, rH, ok := Lemma51Holds(b, sh); !ok {
		return nil, fmt.Errorf("core: Theorem 5.2: derandomized residual has δ_H=%d < 6·r_H=%d", dH, 6*rH)
	}
	fin, err := finishHighGirth(b, trits, unsatU, nil)
	if err != nil {
		return nil, fmt.Errorf("core: Theorem 5.2: %w", err)
	}
	fin.Trace.Merge("", &res.Trace)
	return fin, nil
}

// applyUncoloring runs the uncoloring phase deterministically on a full trit
// assignment and returns the final trits plus the unsatisfied flags.
func applyUncoloring(b *graph.Bipartite, trits []int) ([]int, []bool) {
	out := append([]int(nil), trits...)
	uncolor := make([]bool, b.NV())
	for u := 0; u < b.NU(); u++ {
		d := b.DegU(u)
		if d == 0 {
			continue
		}
		colored := 0
		for _, v := range b.NbrU(u) {
			if out[v] != Uncolored {
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
			out[v] = Uncolored
		}
	}
	unsat := make([]bool, b.NU())
	for u := 0; u < b.NU(); u++ {
		var red, blue bool
		for _, v := range b.NbrU(u) {
			switch out[v] {
			case Red:
				red = true
			case Blue:
				blue = true
			}
		}
		unsat[u] = !(red && blue)
	}
	return out, unsat
}

// Trit labels used by the shattering derandomization. The estimator's label
// distribution is (1/4, 1/4, 1/2) as in the shattering algorithm; greedy
// minimization remains valid for non-uniform distributions because the
// minimum over labels is at most the distribution-weighted average.
const (
	tritRed       = 0
	tritBlue      = 1
	tritUncolored = 2
)

// shatterEstimator is the pessimistic estimator behind Theorem 5.2.
//
// For every constraint u, P̂(u) upper-bounds Pr[u unsatisfied] under random
// completion:
//
//	P̂(u) = P(no red neighbor colored) + P(no blue neighbor colored)
//	     + Σ_{ū ∈ N²(u) ∪ {u}} P(ū colors > 3/4 of its neighbors),
//
// where each summand is an exact event probability (binomial tails over
// undecided trits), valid because a constraint can only become unsatisfied
// through missing a color outright or through an uncoloring event within
// two hops. For every variable v, the potential term is the log-space MGF
// bound
//
//	Φ_v = exp( Σ_{u ∈ N(v)} log1p((e^t-1)·P̂(u)) − t·k ),  k = max(1, ⌊δ/24⌋);
//
// Φ_v < 1 at the end forces v to have < k unsatisfied neighbors, which is
// exactly the conclusion of Lemma 5.1 (r_H ≤ δ/24, hence δ_H ≥ δ/4 ≥ 6·r_H).
// Girth ≥ 10 makes the factors of each product depend on (almost) disjoint
// variables (Lemma 5.1's independence argument), so each Φ_v is a valid
// pessimistic estimator up to the positive-correlation slack of factors
// that share a variable through uncoloring events; Φ = Σ_v Φ_v. The
// per-constraint terms are exact martingales, the greedy trajectory is
// non-increasing in practice, and the pipeline re-verifies the Lemma 5.1
// conclusion on the final assignment, failing loudly if the slack ever
// mattered.
//
// All state is maintained incrementally: pa2sum[u] caches the uncoloring
// term Σ, so a fix touches only the radius-3 ball of the variable.
type shatterEstimator struct {
	b *graph.Bipartite
	// Per-constraint direct state.
	undec   []int // undecided neighbors of u
	hasRed  []bool
	hasBlue []bool
	// Per-constraint uncoloring-event state: colored count so far and the
	// event threshold (colored > 3d/4 ⟺ colored ≥ thresh).
	fixedColored []int
	thresh       []int
	pa2          []float64 // P(A2(u)) under the current partial state
	pa2sum       []float64 // Σ_{ū ∈ n2[u]} pa2[ū]
	// n2[u] = constraints within two hops of u, including u itself.
	n2 [][]int32
	// phat[u] = cached P̂(u).
	phat []float64
	// Per-variable potential bookkeeping: sv[v] = Σ log1p((e^t-1)·P̂(u)),
	// phi[v] = exp(sv[v] - t·k).
	sv  []float64
	phi []float64
	t   float64
	em1 float64 // e^t - 1
	k   int
	sum float64
	// assigned[w] = chosen trit, or -1.
	assigned []int
	// Epoch-stamped dedup scratch for apply().
	epoch  int64
	uStamp []int64
	vStamp []int64
}

var _ derand.Estimator = (*shatterEstimator)(nil)

func newShatterEstimator(b *graph.Bipartite) *shatterEstimator {
	nu, nv := b.NU(), b.NV()
	e := &shatterEstimator{
		b:            b,
		undec:        make([]int, nu),
		hasRed:       make([]bool, nu),
		hasBlue:      make([]bool, nu),
		fixedColored: make([]int, nu),
		thresh:       make([]int, nu),
		pa2:          make([]float64, nu),
		pa2sum:       make([]float64, nu),
		n2:           make([][]int32, nu),
		phat:         make([]float64, nu),
		sv:           make([]float64, nv),
		phi:          make([]float64, nv),
		assigned:     make([]int, nv),
		uStamp:       make([]int64, nu),
		vStamp:       make([]int64, nv),
	}
	for v := range e.assigned {
		e.assigned[v] = -1
	}
	for u := 0; u < nu; u++ {
		d := b.DegU(u)
		e.undec[u] = d
		e.thresh[u] = 3*d/4 + 1 // colored > 3d/4 ⟺ colored ≥ this
		e.pa2[u] = prob.BinomTailGE(d, 0.5, e.thresh[u])
		// N²(u) ∪ {u}, deterministic order, deduplicated.
		e.epoch++
		list := []int32{int32(u)}
		e.uStamp[u] = e.epoch
		for _, v := range b.NbrU(u) {
			for _, w := range b.NbrV(int(v)) {
				if e.uStamp[w] != e.epoch {
					e.uStamp[w] = e.epoch
					list = append(list, w)
				}
			}
		}
		e.n2[u] = list
	}
	for u := 0; u < nu; u++ {
		var s float64
		for _, ub := range e.n2[u] {
			s += e.pa2[ub]
		}
		e.pa2sum[u] = s
		e.phat[u] = e.computePhat(u)
	}
	// Pick the MGF parameter from the worst initial P̂ so that
	// (e^t-1)·P̂ ≈ √P̂ stays small while t·k is as large as possible.
	worst := 1e-300
	for _, p := range e.phat {
		if p > worst {
			worst = p
		}
	}
	e.t = math.Max(1, 0.5*math.Log(1/worst))
	e.em1 = math.Exp(e.t) - 1
	delta := b.MinDegU()
	e.k = delta / 24
	if e.k < 1 {
		e.k = 1
	}
	for v := 0; v < nv; v++ {
		var s float64
		for _, u := range b.NbrV(v) {
			s += math.Log1p(e.em1 * e.phat[u])
		}
		e.sv[v] = s
		e.phi[v] = math.Exp(s - e.t*float64(e.k))
		e.sum += e.phi[v]
	}
	return e
}

// computePhat evaluates P̂(u) in O(1) from the cached states: the exact
// probabilities of "no red / no blue among colored neighbors" plus the
// cached uncoloring-event sum.
func (e *shatterEstimator) computePhat(u int) float64 {
	var p float64
	if !e.hasRed[u] {
		p += math.Pow(0.75, float64(e.undec[u]))
	}
	if !e.hasBlue[u] {
		p += math.Pow(0.75, float64(e.undec[u]))
	}
	return p + e.pa2sum[u]
}

// Vars implements derand.Estimator.
func (e *shatterEstimator) Vars() int { return e.b.NV() }

// Labels implements derand.Estimator.
func (e *shatterEstimator) Labels() int { return 3 }

// Cost implements derand.Estimator.
func (e *shatterEstimator) Cost() float64 { return e.sum }

// CostIf implements derand.Estimator via apply + rollback.
func (e *shatterEstimator) CostIf(w, x int) float64 {
	undo := e.apply(w, x)
	c := e.sum
	e.revert(undo)
	return c
}

// Fix implements derand.Estimator.
func (e *shatterEstimator) Fix(w, x int) { e.apply(w, x) }

// undoLog records prior values so CostIf can roll back exactly (float
// updates are restored from snapshots, not recomputed, to keep CostIf and
// the post-Fix Cost bit-identical).
type undoLog struct {
	w          int
	prevAssign int
	prevSum    float64
	prevRed    []bool // parallel to N(w)
	prevBlue   []bool
	prevPA2    []float64
	uAffected  []int32 // union of n2[ū] over ū ∈ N(w)
	prevPhat   []float64
	prevPa2sum []float64
	vAffected  []int32
	prevSv     []float64
	prevPhi    []float64
}

func (e *shatterEstimator) apply(w, x int) *undoLog {
	u0 := e.b.NbrV(w)
	undo := &undoLog{
		w:          w,
		prevAssign: e.assigned[w],
		prevSum:    e.sum,
	}
	e.assigned[w] = x
	e.epoch++
	// Affected constraints: the union of N²(ū) ∪ {ū} over ū ∈ N(w); their
	// phat (and possibly pa2sum) values change. N(w) ⊆ the union because
	// n2 lists include the node itself.
	for _, ui := range u0 {
		for _, ub := range e.n2[ui] {
			if e.uStamp[ub] != e.epoch {
				e.uStamp[ub] = e.epoch
				undo.uAffected = append(undo.uAffected, ub)
			}
		}
	}
	undo.prevPhat = make([]float64, len(undo.uAffected))
	undo.prevPa2sum = make([]float64, len(undo.uAffected))
	for i, ub := range undo.uAffected {
		undo.prevPhat[i] = e.phat[ub]
		undo.prevPa2sum[i] = e.pa2sum[ub]
	}
	// Direct state and uncoloring-event updates at the constraints of w.
	undo.prevRed = make([]bool, len(u0))
	undo.prevBlue = make([]bool, len(u0))
	undo.prevPA2 = make([]float64, len(u0))
	for i, ui := range u0 {
		u := int(ui)
		undo.prevRed[i] = e.hasRed[u]
		undo.prevBlue[i] = e.hasBlue[u]
		undo.prevPA2[i] = e.pa2[u]
		e.undec[u]--
		switch x {
		case tritRed:
			e.hasRed[u] = true
			e.fixedColored[u]++
		case tritBlue:
			e.hasBlue[u] = true
			e.fixedColored[u]++
		}
		newPA2 := prob.BinomTailGE(e.undec[u], 0.5, e.thresh[u]-e.fixedColored[u])
		if d := newPA2 - e.pa2[u]; d != 0 {
			for _, ub := range e.n2[u] {
				e.pa2sum[ub] += d
			}
		}
		e.pa2[u] = newPA2
	}
	// Refresh phat on the affected ball and push the per-variable deltas.
	for _, ub := range undo.uAffected {
		old := e.phat[ub]
		nw := e.computePhat(int(ub))
		e.phat[ub] = nw
		if nw == old {
			continue
		}
		dlog := math.Log1p(e.em1*nw) - math.Log1p(e.em1*old)
		for _, v := range e.b.NbrU(int(ub)) {
			if e.vStamp[v] != e.epoch {
				e.vStamp[v] = e.epoch
				undo.vAffected = append(undo.vAffected, v)
				undo.prevSv = append(undo.prevSv, e.sv[v])
				undo.prevPhi = append(undo.prevPhi, e.phi[v])
			}
			e.sv[v] += dlog
		}
	}
	for _, v := range undo.vAffected {
		e.sum -= e.phi[v]
		e.phi[v] = math.Exp(e.sv[v] - e.t*float64(e.k))
		e.sum += e.phi[v]
	}
	return undo
}

func (e *shatterEstimator) revert(undo *undoLog) {
	w := undo.w
	x := e.assigned[w]
	e.assigned[w] = undo.prevAssign
	for i, ui := range e.b.NbrV(w) {
		u := int(ui)
		e.undec[u]++
		e.hasRed[u] = undo.prevRed[i]
		e.hasBlue[u] = undo.prevBlue[i]
		if x == tritRed || x == tritBlue {
			e.fixedColored[u]--
		}
		e.pa2[u] = undo.prevPA2[i]
	}
	for i, ub := range undo.uAffected {
		e.phat[ub] = undo.prevPhat[i]
		e.pa2sum[ub] = undo.prevPa2sum[i]
	}
	for i, v := range undo.vAffected {
		e.sv[v] = undo.prevSv[i]
		e.phi[v] = undo.prevPhi[i]
	}
	e.sum = undo.prevSum
}
