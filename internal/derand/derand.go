// Package derand implements the method of conditional expectations behind
// [GHK16, Theorem III.1], which the paper uses to turn zero/one-round
// randomized algorithms into deterministic SLOCAL algorithms (Lemma 2.1,
// Lemma 3.1, Theorems 3.2/3.3, Section 4.1).
//
// A randomized assignment of labels to variables is derandomized against a
// pessimistic estimator Φ: an upper bound on the expected number of violated
// constraints under random completion of the remaining variables, which (i)
// can be evaluated under partial assignments and (ii) does not increase in
// expectation when a variable is fixed to a uniformly random label. Greedily
// fixing each variable to the label minimizing Φ keeps Φ non-increasing, so
// if the initial Φ < 1 the final (integer) violation count is 0.
package derand

import (
	"fmt"
	"math"
)

// Estimator is a pessimistic estimator over variables 0..Vars()-1, each
// taking a label in 0..Labels()-1.
type Estimator interface {
	// Vars returns the number of variables.
	Vars() int
	// Labels returns the size of the label alphabet.
	Labels() int
	// Cost returns the current potential Φ under the partial assignment.
	Cost() float64
	// CostIf returns the potential that fixing variable v to label x would
	// produce. It must not mutate state.
	CostIf(v, x int) float64
	// Fix assigns label x to variable v.
	Fix(v, x int)
}

// Greedy fixes the variables in the given order (every variable exactly
// once), each to the label minimizing the potential. It returns the full
// assignment. An error is returned if the initial potential is ≥ 1 — the
// precondition of the derandomization (e.g. δ ≥ 2·log n in Lemma 2.1) does
// not hold.
func Greedy(est Estimator, order []int) ([]int, error) {
	if len(order) != est.Vars() {
		return nil, fmt.Errorf("derand: order has %d entries for %d variables", len(order), est.Vars())
	}
	if c := est.Cost(); c >= 1 {
		return nil, fmt.Errorf("derand: initial potential %.4g >= 1; precondition violated", c)
	}
	labels := make([]int, est.Vars())
	for i := range labels {
		labels[i] = -1
	}
	for _, v := range order {
		if labels[v] >= 0 {
			return nil, fmt.Errorf("derand: variable %d appears twice in order", v)
		}
		best, bestCost := 0, math.Inf(1)
		for x := 0; x < est.Labels(); x++ {
			if c := est.CostIf(v, x); c < bestCost {
				best, bestCost = x, c
			}
		}
		est.Fix(v, best)
		labels[v] = best
	}
	for v, x := range labels {
		if x < 0 {
			return nil, fmt.Errorf("derand: variable %d never fixed", v)
		}
	}
	return labels, nil
}

// constraintRef lists which constraints a variable participates in.
type constraintRef struct {
	varToCons [][]int32
}

// WeakSplitEstimator is the exact potential of Lemma 2.1: for every
// constraint u, Φ_u = Pr[no red neighbor] + Pr[no blue neighbor] under
// uniform red/blue completion of the undecided variables. Initially
// Φ = Σ_u 2·2^{-deg(u)} < 1 whenever deg(u) ≥ 2·log n for all u.
type WeakSplitEstimator struct {
	refs    constraintRef
	undec   []int // per constraint: undecided neighbor count
	hasRed  []bool
	hasBlue []bool
	cost    float64
}

// Label values for two-coloring estimators.
const (
	Red  = 0
	Blue = 1
)

// NewWeakSplitEstimator builds the estimator. varToCons[v] lists the
// constraints adjacent to variable v; degrees[u] is the (current) degree of
// constraint u.
func NewWeakSplitEstimator(varToCons [][]int32, degrees []int) *WeakSplitEstimator {
	e := &WeakSplitEstimator{
		refs:    constraintRef{varToCons: varToCons},
		undec:   append([]int(nil), degrees...),
		hasRed:  make([]bool, len(degrees)),
		hasBlue: make([]bool, len(degrees)),
	}
	for u := range degrees {
		e.cost += e.term(u)
	}
	return e
}

// exp2NegTable holds 2^-k for k in [0, 1075]: every power of two down to
// the smallest subnormal, 2^-1074, and the first k that underflows to 0.
var exp2NegTable = func() (t [1076]float64) {
	for k := range t {
		t[k] = math.Exp2(-float64(k))
	}
	return t
}()

// exp2Neg returns 2^-k, bit-identical to math.Exp2(-float64(k)), from the
// table when k is in range: the estimator's terms need it for every
// constraint of every candidate label, and math.Exp2 dominated its cost.
func exp2Neg(k int) float64 {
	if uint(k) < uint(len(exp2NegTable)) {
		return exp2NegTable[k]
	}
	return math.Exp2(-float64(k))
}

// term is Φ_u under the current partial assignment.
func (e *WeakSplitEstimator) term(u int) float64 {
	p := exp2Neg(e.undec[u])
	var t float64
	if !e.hasRed[u] {
		t += p
	}
	if !e.hasBlue[u] {
		t += p
	}
	return t
}

// termIf is Φ_u if one more undecided neighbor were fixed to label x.
func (e *WeakSplitEstimator) termIf(u, x int) float64 {
	p := exp2Neg(e.undec[u] - 1)
	var t float64
	if !e.hasRed[u] && x != Red {
		t += p
	}
	if !e.hasBlue[u] && x != Blue {
		t += p
	}
	return t
}

// Vars implements Estimator.
func (e *WeakSplitEstimator) Vars() int { return len(e.refs.varToCons) }

// Labels implements Estimator.
func (e *WeakSplitEstimator) Labels() int { return 2 }

// Cost implements Estimator.
func (e *WeakSplitEstimator) Cost() float64 { return e.cost }

// CostIf implements Estimator.
func (e *WeakSplitEstimator) CostIf(v, x int) float64 {
	c := e.cost
	for _, u := range e.refs.varToCons[v] {
		c += e.termIf(int(u), x) - e.term(int(u))
	}
	return c
}

// Fix implements Estimator.
func (e *WeakSplitEstimator) Fix(v, x int) {
	for _, u := range e.refs.varToCons[v] {
		e.cost -= e.term(int(u))
		e.undec[u]--
		if x == Red {
			e.hasRed[u] = true
		} else {
			e.hasBlue[u] = true
		}
		e.cost += e.term(int(u))
	}
}

// Violations counts constraints that still lack a color among their decided
// neighbors once all variables are fixed (for tests; 0 after a successful
// Greedy run).
func (e *WeakSplitEstimator) Violations() int {
	var bad int
	for u := range e.undec {
		if !e.hasRed[u] || !e.hasBlue[u] {
			bad++
		}
	}
	return bad
}

// MulticolorCoverEstimator is the potential of Theorem 3.2's membership
// proof: variables choose one of C colors uniformly; for every constraint u
// and color x, the term Pr[no neighbor of u has color x] =
// [x unseen]·(1-1/C)^{undec(u)}. Final potential 0 means every constraint
// sees all C colors (stronger than the required 2·log n distinct colors).
type MulticolorCoverEstimator struct {
	refs   constraintRef
	colors int
	undec  []int
	seen   [][]bool // seen[u][x]
	nSeen  []int
	cost   float64
}

// NewMulticolorCoverEstimator builds the estimator for C colors.
func NewMulticolorCoverEstimator(varToCons [][]int32, degrees []int, colors int) *MulticolorCoverEstimator {
	e := &MulticolorCoverEstimator{
		refs:   constraintRef{varToCons: varToCons},
		colors: colors,
		undec:  append([]int(nil), degrees...),
		seen:   make([][]bool, len(degrees)),
		nSeen:  make([]int, len(degrees)),
	}
	for u := range degrees {
		e.seen[u] = make([]bool, colors)
		e.cost += e.term(u)
	}
	return e
}

func (e *MulticolorCoverEstimator) missProb(undec int) float64 {
	return math.Pow(1-1/float64(e.colors), float64(undec))
}

func (e *MulticolorCoverEstimator) term(u int) float64 {
	return float64(e.colors-e.nSeen[u]) * e.missProb(e.undec[u])
}

// Vars implements Estimator.
func (e *MulticolorCoverEstimator) Vars() int { return len(e.refs.varToCons) }

// Labels implements Estimator.
func (e *MulticolorCoverEstimator) Labels() int { return e.colors }

// Cost implements Estimator.
func (e *MulticolorCoverEstimator) Cost() float64 { return e.cost }

// CostIf implements Estimator.
func (e *MulticolorCoverEstimator) CostIf(v, x int) float64 {
	c := e.cost
	for _, ui := range e.refs.varToCons[v] {
		u := int(ui)
		nSeen := e.nSeen[u]
		if !e.seen[u][x] {
			nSeen++
		}
		after := float64(e.colors-nSeen) * e.missProb(e.undec[u]-1)
		c += after - e.term(u)
	}
	return c
}

// Fix implements Estimator.
func (e *MulticolorCoverEstimator) Fix(v, x int) {
	for _, ui := range e.refs.varToCons[v] {
		u := int(ui)
		e.cost -= e.term(u)
		e.undec[u]--
		if !e.seen[u][x] {
			e.seen[u][x] = true
			e.nSeen[u]++
		}
		e.cost += e.term(u)
	}
}

// SeenCount returns how many distinct colors constraint u sees (tests).
func (e *MulticolorCoverEstimator) SeenCount(u int) int { return e.nSeen[u] }

// CLambdaEstimator is the Chernoff/MGF pessimistic estimator for
// (C,λ)-multicolor splitting (Definition 1.2, Theorem 3.3): variables pick
// one of C colors uniformly; for every constraint u and color x, the term
// bounds Pr[more than ⌈λ·deg(u)⌉ neighbors of u get color x] by
// e^{t(fixed_x - k_u)} · (1 + (e^t-1)/C)^{undec(u)}, with the per-constraint
// t chosen as in the proof of inequality (2).
type CLambdaEstimator struct {
	refs   constraintRef
	colors int
	undec  []int
	fixed  [][]int32 // fixed[u][x] = decided neighbors of u with color x
	kk     []int     // k_u = ⌈λ·deg(u)⌉ threshold
	tt     []float64 // per-constraint MGF parameter
	cost   float64
}

// NewCLambdaEstimator builds the estimator.
func NewCLambdaEstimator(varToCons [][]int32, degrees []int, colors int, lambda float64) *CLambdaEstimator {
	e := &CLambdaEstimator{
		refs:   constraintRef{varToCons: varToCons},
		colors: colors,
		undec:  append([]int(nil), degrees...),
		fixed:  make([][]int32, len(degrees)),
		kk:     make([]int, len(degrees)),
		tt:     make([]float64, len(degrees)),
	}
	for u, d := range degrees {
		e.fixed[u] = make([]int32, colors)
		k := int(math.Ceil(lambda * float64(d)))
		if k < 1 {
			k = 1
		}
		e.kk[u] = k
		// Optimal Chernoff parameter for Pr[Bin(d,1/C) ≥ k]:
		// t = ln(k·C/d), clamped to be positive.
		t := math.Log(float64(k) * float64(colors) / math.Max(float64(d), 1))
		if t <= 0 {
			t = 0.1
		}
		e.tt[u] = t
		e.cost += e.term(u)
	}
	return e
}

func (e *CLambdaEstimator) termWith(u, undec int, extra int, x int) float64 {
	t := e.tt[u]
	base := math.Pow(1+(math.Exp(t)-1)/float64(e.colors), float64(undec))
	var sum float64
	for c := 0; c < e.colors; c++ {
		fx := float64(e.fixed[u][c])
		if c == x {
			fx += float64(extra)
		}
		// Per-color exceedance term: e^{t(fx - k)} · E[e^{tB}] with
		// B ~ Bin(undec, 1/C).
		sum += math.Exp(t*(fx-float64(e.kk[u]))) * base
	}
	return sum
}

func (e *CLambdaEstimator) term(u int) float64 { return e.termWith(u, e.undec[u], 0, -1) }

// Vars implements Estimator.
func (e *CLambdaEstimator) Vars() int { return len(e.refs.varToCons) }

// Labels implements Estimator.
func (e *CLambdaEstimator) Labels() int { return e.colors }

// Cost implements Estimator.
func (e *CLambdaEstimator) Cost() float64 { return e.cost }

// CostIf implements Estimator.
func (e *CLambdaEstimator) CostIf(v, x int) float64 {
	c := e.cost
	for _, ui := range e.refs.varToCons[v] {
		u := int(ui)
		c += e.termWith(u, e.undec[u]-1, 1, x) - e.term(u)
	}
	return c
}

// Fix implements Estimator.
func (e *CLambdaEstimator) Fix(v, x int) {
	for _, ui := range e.refs.varToCons[v] {
		u := int(ui)
		e.cost -= e.term(u)
		e.undec[u]--
		e.fixed[u][x]++
		e.cost += e.term(u)
	}
}

// MaxLoad returns max over colors of fixed[u][x] for constraint u (tests).
func (e *CLambdaEstimator) MaxLoad(u int) int {
	var worst int32
	for _, f := range e.fixed[u] {
		if f > worst {
			worst = f
		}
	}
	return int(worst)
}

// Threshold returns k_u = ⌈λ·deg(u)⌉ for constraint u.
func (e *CLambdaEstimator) Threshold(u int) int { return e.kk[u] }

// UniformSplitEstimator derandomizes the uniform (strong) splitting of
// Section 4.1: every graph node is a variable (red/blue) and every node is
// also a constraint requiring its red-neighbor count X_v to lie in
// [(1/2-ε)d(v), (1/2+ε)d(v)] (and symmetrically for blue, which is implied).
// The potential is the Hoeffding MGF bound on both tails with t = 2ε.
type UniformSplitEstimator struct {
	refs  constraintRef
	undec []int
	red   []int // decided red neighbors per constraint
	deg   []int
	eps   float64
	t     float64
	cost  float64
}

// NewUniformSplitEstimator builds the estimator; varToCons is typically the
// adjacency of the graph itself (variable v affects constraint u iff
// {u,v} ∈ E).
func NewUniformSplitEstimator(varToCons [][]int32, degrees []int, eps float64) *UniformSplitEstimator {
	e := &UniformSplitEstimator{
		refs:  constraintRef{varToCons: varToCons},
		undec: append([]int(nil), degrees...),
		red:   make([]int, len(degrees)),
		deg:   append([]int(nil), degrees...),
		eps:   eps,
		t:     2 * eps,
	}
	for u := range degrees {
		e.cost += e.term(u)
	}
	return e
}

func (e *UniformSplitEstimator) termWith(u, undec, red int) float64 {
	d := float64(e.deg[u])
	hi := (0.5 + e.eps) * d
	lo := (0.5 - e.eps) * d
	t := e.t
	mgfUp := math.Exp(t*(float64(red)-hi)) * math.Pow((1+math.Exp(t))/2, float64(undec)) * math.Exp(-0) // E e^{tX} / e^{t·hi}
	mgfLo := math.Exp(t*(lo-float64(red))) * math.Pow((1+math.Exp(-t))/2, float64(undec))
	return mgfUp + mgfLo
}

func (e *UniformSplitEstimator) term(u int) float64 { return e.termWith(u, e.undec[u], e.red[u]) }

// Vars implements Estimator.
func (e *UniformSplitEstimator) Vars() int { return len(e.refs.varToCons) }

// Labels implements Estimator.
func (e *UniformSplitEstimator) Labels() int { return 2 }

// Cost implements Estimator.
func (e *UniformSplitEstimator) Cost() float64 { return e.cost }

// CostIf implements Estimator.
func (e *UniformSplitEstimator) CostIf(v, x int) float64 {
	c := e.cost
	for _, ui := range e.refs.varToCons[v] {
		u := int(ui)
		red := e.red[u]
		if x == Red {
			red++
		}
		c += e.termWith(u, e.undec[u]-1, red) - e.term(u)
	}
	return c
}

// Fix implements Estimator.
func (e *UniformSplitEstimator) Fix(v, x int) {
	for _, ui := range e.refs.varToCons[v] {
		u := int(ui)
		e.cost -= e.term(u)
		e.undec[u]--
		if x == Red {
			e.red[u]++
		}
		e.cost += e.term(u)
	}
}

// DefectiveSplitEstimator derandomizes the defective 2-coloring of the
// paper's footnote 2 (Section 1.1): color the nodes of a graph red/blue so
// that every node of degree ≥ minDeg has at most (1/2+ε)·d(v) neighbors of
// its *own* color — a weaker requirement than uniform splitting, but
// already enough for the coloring application. The potential is a Hoeffding
// MGF bound on the own-color count; a node's own term averages over its two
// possible colors until the node itself is fixed.
type DefectiveSplitEstimator struct {
	adj    [][]int32 // graph adjacency among constrained/variable nodes
	deg    []int
	active []bool // whether the node carries a constraint
	label  []int  // fixed label or -1
	same   []int  // fixed neighbors matching the node's fixed label
	red    []int  // fixed red neighbors (to resolve terms when v gets fixed)
	undec  []int
	eps    float64
	t      float64
	cost   float64
}

// NewDefectiveSplitEstimator builds the estimator over the graph adjacency;
// nodes of degree < minDeg carry no constraint.
func NewDefectiveSplitEstimator(adj [][]int32, minDeg int, eps float64) *DefectiveSplitEstimator {
	n := len(adj)
	e := &DefectiveSplitEstimator{
		adj:    adj,
		deg:    make([]int, n),
		active: make([]bool, n),
		label:  make([]int, n),
		same:   make([]int, n),
		red:    make([]int, n),
		undec:  make([]int, n),
		eps:    eps,
		t:      2 * eps,
	}
	for v := range adj {
		e.deg[v] = len(adj[v])
		e.undec[v] = len(adj[v])
		e.label[v] = -1
		e.active[v] = len(adj[v]) >= minDeg
		e.cost += e.term(v)
	}
	return e
}

// termFixed is the MGF bound for a node whose own label is fixed: it has
// `same` matching fixed neighbors and `undec` undecided ones (each matching
// with probability 1/2).
func (e *DefectiveSplitEstimator) termFixed(v, same, undec int) float64 {
	hi := (0.5 + e.eps) * float64(e.deg[v])
	return math.Exp(e.t*(float64(same)-hi)) * math.Pow((1+math.Exp(e.t))/2, float64(undec))
}

// term is the current potential contribution of node v.
func (e *DefectiveSplitEstimator) term(v int) float64 {
	if !e.active[v] {
		return 0
	}
	if e.label[v] >= 0 {
		return e.termFixed(v, e.same[v], e.undec[v])
	}
	// Own label undecided: average over red and blue.
	fixed := e.deg[v] - e.undec[v]
	sameIfRed := e.red[v]
	sameIfBlue := fixed - e.red[v]
	return (e.termFixed(v, sameIfRed, e.undec[v]) + e.termFixed(v, sameIfBlue, e.undec[v])) / 2
}

// Vars implements Estimator.
func (e *DefectiveSplitEstimator) Vars() int { return len(e.adj) }

// Labels implements Estimator.
func (e *DefectiveSplitEstimator) Labels() int { return 2 }

// Cost implements Estimator.
func (e *DefectiveSplitEstimator) Cost() float64 { return e.cost }

// CostIf implements Estimator.
func (e *DefectiveSplitEstimator) CostIf(v, x int) float64 {
	undo := e.apply(v, x)
	c := e.cost
	undo()
	return c
}

// Fix implements Estimator.
func (e *DefectiveSplitEstimator) Fix(v, x int) { e.apply(v, x) }

func (e *DefectiveSplitEstimator) apply(v, x int) func() {
	type snap struct {
		v         int
		same, red int
		undec     int
		label     int
	}
	touched := make([]snap, 0, len(e.adj[v])+1)
	prevCost := e.cost
	record := func(u int) {
		touched = append(touched, snap{v: u, same: e.same[u], red: e.red[u], undec: e.undec[u], label: e.label[u]})
	}
	record(v)
	e.cost -= e.term(v)
	e.label[v] = x
	// same[v] resolves from the fixed-neighbor counts.
	fixed := e.deg[v] - e.undec[v]
	if x == Red {
		e.same[v] = e.red[v]
	} else {
		e.same[v] = fixed - e.red[v]
	}
	e.cost += e.term(v)
	for _, ui := range e.adj[v] {
		u := int(ui)
		record(u)
		e.cost -= e.term(u)
		e.undec[u]--
		if x == Red {
			e.red[u]++
		}
		if e.label[u] == x {
			e.same[u]++
		}
		e.cost += e.term(u)
	}
	return func() {
		for i := len(touched) - 1; i >= 0; i-- {
			s := touched[i]
			e.same[s.v] = s.same
			e.red[s.v] = s.red
			e.undec[s.v] = s.undec
			e.label[s.v] = s.label
		}
		e.cost = prevCost
	}
}
