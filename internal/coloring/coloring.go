// Package coloring provides the distributed coloring substrates the paper
// consumes: Linial's O(Δ²)-coloring in O(log* n) rounds, Kuhn–Wattenhofer
// parallel color reduction down to Δ+1 colors, and distance-k colorings of
// power graphs (used to compile SLOCAL algorithms into LOCAL ones, cf.
// Lemma 2.1 and Theorems 3.2/5.2).
//
// Substitution note (DESIGN.md §2): the paper cites [BEK14a] for
// (Δ+1)-coloring in O(Δ + log* n) rounds; this package implements the
// classic Linial + Kuhn–Wattenhofer pipeline with round complexity
// O(Δ·log(n/Δ) + log* n), one log factor more, which keeps every consuming
// bound polylogarithmic.
package coloring

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/prob"
)

// Result is a proper coloring together with the LOCAL cost of computing it.
type Result struct {
	Colors []int // Colors[v] ∈ [0, NumColors)
	Num    int   // number of colors in the palette
	Stats  local.Stats
}

// linialStep holds the per-iteration parameters of Linial's color reduction:
// colors in [K) are re-encoded as degree-(L-1) polynomials over GF(q) and
// mapped into [q²).
type linialStep struct {
	k, q, l int
}

// linialSchedule precomputes the (globally known) iteration parameters,
// starting from K = n colors, until the palette stops shrinking.
func linialSchedule(n, maxDeg int) []linialStep {
	var steps []linialStep
	k := n
	for {
		q, l := linialParams(k, maxDeg)
		if q*q >= k {
			return steps
		}
		steps = append(steps, linialStep{k: k, q: q, l: l})
		k = q * q
	}
}

// linialParams returns the smallest prime q with q ≥ Δ·L+1 where
// L = ⌈log_q K⌉, so that every node has an evaluation point avoiding all
// ≤ Δ·(L-1) collisions with neighbors' polynomials.
func linialParams(k, maxDeg int) (q, l int) {
	if maxDeg < 1 {
		maxDeg = 1
	}
	q = prob.SmallestPrimeAtLeast(maxDeg + 2)
	for {
		l = logCeil(k, q)
		if l < 1 {
			l = 1
		}
		if q >= maxDeg*l+1 {
			return q, l
		}
		q = prob.SmallestPrimeAtLeast(q + 1)
	}
}

// logCeil returns ⌈log_base(k)⌉ for k ≥ 1.
func logCeil(k, base int) int {
	if k <= 1 {
		return 1
	}
	l, pow := 0, 1
	for pow < k {
		pow *= base
		l++
	}
	return l
}

// kwPass describes one Kuhn–Wattenhofer halving pass: colors in [K) are
// grouped into blocks of size 2(Δ+1) and each block is greedily compressed
// into Δ+1 colors over 2(Δ+1) subrounds.
type kwPass struct {
	k int // palette size at the start of the pass
}

func kwSchedule(k, maxDeg int) []kwPass {
	var passes []kwPass
	target := maxDeg + 1
	for k > target {
		passes = append(passes, kwPass{k: k})
		groups := (k + 2*target - 1) / (2 * target)
		k = groups * target
	}
	return passes
}

// colorNode is the per-node LOCAL program: Linial iterations followed by KW
// reduction subrounds. Every node follows the same globally precomputed
// schedule, so all nodes terminate in the same round.
//
// Nodes broadcast their color only when it changes (plus the initial
// announcement) and cache the last received color per port; this keeps the
// message volume at O(recolorings·Δ) instead of O(rounds·m) without
// changing the algorithm: a silent neighbor's color is its cached one.
//
// Colors are exchanged on the word plane (local.WordNode): a message is one
// tagged word carrying the color, so engine rounds move flat uint64s
// instead of boxing every announcement onto the heap.
type colorNode struct {
	view   local.View
	maxDeg int
	linial []linialStep
	kw     []kwPass
	color  int
	cache  []int // cache[p] = last color heard on port p
	out    *[]int
	idx    int
}

var _ local.WordNode = (*colorNode)(nil)

// RoundW implements local.WordNode.
//
//splitlint:zeroalloc
func (c *colorNode) RoundW(r int, recv, send []local.Word) bool {
	if c.cache == nil {
		//lint:alloc one-time lazy init: the cache is built on the node's first round and reused for the rest of the run
		c.cache = make([]int, c.view.Deg)
		for p := range c.cache {
			c.cache[p] = -1
		}
	}
	for p, m := range recv {
		if m != local.NilWord {
			c.cache[p] = m.Int()
		}
	}
	changed := false
	switch {
	case r == 1:
		changed = true // announce the initial color (the ID)
	case r <= 1+len(c.linial):
		st := c.linial[r-2]
		if nc := linialRecolor(c.color, c.cache, st); nc != c.color {
			c.color, changed = nc, true
		}
	default:
		// KW reduction: figure out which pass/subround this round is.
		kwRound := r - 2 - len(c.linial) // 0-based within the KW phase
		_, sub, total := kwLocate(kwRound, c.kw, c.maxDeg)
		if kwRound >= total {
			// Schedule exhausted (only happens when kw is empty).
			(*c.out)[c.idx] = c.color
			return true
		}
		target := c.maxDeg + 1
		s := 2 * target
		// Group and in-group index are recomputed from the current color
		// each subround; every node's index comes up exactly once per pass,
		// and simultaneous recolorers in the same subround have colors that
		// agree mod s and hence lie in different groups with disjoint
		// palettes, so properness is an invariant.
		if group, j := c.color/s, c.color%s; j == sub {
			if nc := greedyPick(group*target, target, c.cache); nc != c.color {
				c.color, changed = nc, true
			}
		}
		if kwRound == total-1 {
			(*c.out)[c.idx] = c.color
			if changed {
				c.broadcast(send)
			}
			return true
		}
	}
	if len(c.linial) == 0 && len(c.kw) == 0 {
		(*c.out)[c.idx] = c.color
		return true
	}
	if changed {
		c.broadcast(send)
	}
	return false
}

//splitlint:zeroalloc
func (c *colorNode) broadcast(send []local.Word) {
	local.Broadcast(send, local.MakeIntWord(1, c.color))
}

// kwLocate maps a 0-based KW round index to (pass, subround); total is the
// total number of KW rounds.
func kwLocate(round int, passes []kwPass, maxDeg int) (pass, sub, total int) {
	s := 2 * (maxDeg + 1)
	total = s * len(passes)
	if round >= total {
		return -1, 0, total
	}
	return round / s, round % s, total
}

// linialRecolor performs one Linial step: encode the color as a polynomial
// over GF(q) and find an evaluation point x whose value differs from every
// neighbor's polynomial at x.
func linialRecolor(color int, nbrColors []int, st linialStep) int {
	own := polyDigits(color, st.q, st.l)
	for x := 0; x < st.q; x++ {
		ok := true
		vx := polyEval(own, x, st.q)
		for _, nc := range nbrColors {
			if nc == color {
				continue // improper input would break Linial; IDs are proper
			}
			if polyEval(polyDigits(nc, st.q, st.l), x, st.q) == vx {
				ok = false
				break
			}
		}
		if ok {
			return x*st.q + vx
		}
	}
	// Unreachable when q ≥ Δ·L+1; keep the old color defensively.
	return color % (st.q * st.q)
}

func polyDigits(c, q, l int) []int {
	d := make([]int, l)
	for i := 0; i < l; i++ {
		d[i] = c % q
		c /= q
	}
	return d
}

func polyEval(digits []int, x, q int) int {
	v := 0
	for i := len(digits) - 1; i >= 0; i-- {
		v = (v*x + digits[i]) % q
	}
	return v
}

// greedyPick returns the smallest color in [base, base+size) not present in
// taken.
func greedyPick(base, size int, taken []int) int {
	used := make(map[int]struct{}, len(taken))
	for _, t := range taken {
		used[t] = struct{}{}
	}
	for c := base; c < base+size; c++ {
		if _, bad := used[c]; !bad {
			return c
		}
	}
	// Unreachable: palette has Δ+1 slots and ≤ Δ neighbors.
	return base
}

// DeltaPlusOne computes a (Δ+1)-coloring of g with the Linial + KW pipeline
// run as a LOCAL node program on the given engine. IDs must be a permutation
// of 0..n-1 (nil for the identity), since Linial starts from the ID space.
func DeltaPlusOne(g *graph.Graph, eng local.Engine, opts local.Options) (*Result, error) {
	n := g.N()
	if n == 0 {
		return &Result{Colors: nil, Num: 0}, nil
	}
	maxDeg := g.MaxDeg()
	lin := linialSchedule(n, maxDeg)
	var kw []kwPass
	if len(lin) > 0 {
		last := lin[len(lin)-1]
		kw = kwSchedule(last.q*last.q, maxDeg)
	} else {
		kw = kwSchedule(n, maxDeg)
	}
	out := make([]int, n)
	idx := 0
	factory := func(v local.View) local.Node {
		node := &colorNode{
			view:   v,
			maxDeg: maxDeg,
			linial: lin,
			kw:     kw,
			color:  v.ID,
			out:    &out,
			idx:    idx,
		}
		idx++
		return local.WordProgram(node)
	}
	topo := local.NewTopology(g)
	stats, err := eng.Run(topo, factory, opts)
	if err != nil {
		return nil, fmt.Errorf("coloring: %w", err)
	}
	res := &Result{Colors: out, Num: maxDeg + 1, Stats: stats}
	if err := Verify(g, res.Colors); err != nil {
		return nil, fmt.Errorf("coloring: self-check failed: %w", err)
	}
	return res, nil
}

// Verify checks that colors is a proper coloring of g.
func Verify(g *graph.Graph, colors []int) error {
	if len(colors) != g.N() {
		return fmt.Errorf("coloring: %d colors for %d nodes", len(colors), g.N())
	}
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Neighbors(v) {
			if colors[v] == colors[w] {
				return fmt.Errorf("coloring: edge {%d,%d} is monochromatic (color %d)", v, w, colors[v])
			}
		}
	}
	return nil
}

// PowerColoring colors the k-th power of g, i.e. computes a distance-k
// coloring, by running the Linial+KW program on g^k. In the LOCAL model a
// round on g^k is simulated by k rounds on g, so the reported Stats.Rounds
// is scaled by k.
func PowerColoring(g *graph.Graph, k int, eng local.Engine, opts local.Options) (*Result, error) {
	pg := g.Power(k)
	res, err := DeltaPlusOne(pg, eng, opts)
	if err != nil {
		return nil, fmt.Errorf("coloring: power graph: %w", err)
	}
	res.Stats.Rounds *= k
	return res, nil
}

// GreedySequential is the centralized reference: color nodes in index order
// with the smallest free color. Used as a test oracle and for tiny
// components where simulating the full pipeline is pointless.
func GreedySequential(g *graph.Graph) *Result {
	n := g.N()
	colors := make([]int, n)
	for i := range colors {
		colors[i] = -1
	}
	// Every color is at most its node's degree, so colors fit in
	// MaxDeg+1 slots; used[c] == v+1 marks color c taken around v, and the
	// stamp never needs clearing.
	used := make([]int32, g.MaxDeg()+1)
	maxC := 0
	for v := 0; v < n; v++ {
		stamp := int32(v + 1)
		for _, w := range g.Neighbors(v) {
			if c := colors[w]; c >= 0 {
				used[c] = stamp
			}
		}
		c := 0
		for used[c] == stamp {
			c++
		}
		colors[v] = c
		if c+1 > maxC {
			maxC = c + 1
		}
	}
	return &Result{Colors: colors, Num: maxC}
}

// EstimateRounds returns the LOCAL round cost that DeltaPlusOne would charge
// on a graph with n nodes and maximum degree maxDeg, without running it.
// Pipelines use it to account rounds honestly when they substitute the
// centralized greedy coloring for the simulated one on very large conflict
// graphs.
func EstimateRounds(n, maxDeg int) int {
	if n == 0 {
		return 0
	}
	lin := linialSchedule(n, maxDeg)
	k := n
	if len(lin) > 0 {
		last := lin[len(lin)-1]
		k = last.q * last.q
	}
	kw := kwSchedule(k, maxDeg)
	return 1 + len(lin) + 2*(maxDeg+1)*len(kw) + 1
}
