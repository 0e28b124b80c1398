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
	"math/bits"

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
// mapped into [q²). top = q^(L-1) is the place value of a color's highest
// digit.
type linialStep struct {
	k, q, l, top int
}

// linialSchedule precomputes the (globally known) iteration parameters,
// starting from K = n colors, until the palette stops shrinking.
func linialSchedule(n, maxDeg int) []linialStep {
	var steps []linialStep
	for st, ok := linialNext(n, maxDeg); ok; st, ok = linialNext(st.q*st.q, maxDeg) {
		steps = append(steps, st)
	}
	return steps
}

// linialNext returns the Linial step that reduces a palette of k colors to
// q², or false when that would not shrink the palette.
func linialNext(k, maxDeg int) (linialStep, bool) {
	q, l := linialParams(k, maxDeg)
	if q*q >= k {
		return linialStep{}, false
	}
	top := 1
	for i := 1; i < l; i++ {
		top *= q
	}
	return linialStep{k: k, q: q, l: l, top: top}, true
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
	for ; k > maxDeg+1; k = kwNext(k, maxDeg) {
		passes = append(passes, kwPass{k: k})
	}
	return passes
}

// kwNext returns the palette size after one pass from k colors: each block
// of 2(Δ+1) colors, the last one possibly partial, shrinks to Δ+1.
func kwNext(k, maxDeg int) int {
	target := maxDeg + 1
	groups := (k + 2*target - 1) / (2 * target)
	return groups * target
}

// colorRun is what every node of one DeltaPlusOne run shares: the
// (globally known) schedule, the port caches and the output. Nodes keep
// only their own few words, so a round streams less memory.
type colorRun struct {
	maxDeg int
	linial []linialStep
	kw     []kwPass
	kw0    int     // the first KW round: 2 + len(linial)
	last   int     // the final round: 1 + len(linial) + 2(Δ+1)·len(kw)
	cache  []int32 // the last color heard on each port, node by node (-1: none yet)
	out    []int
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
//
// A KW node is idle in most rounds: it recolors only in its own subround
// j, and otherwise just caches what its neighbours announce. It sleeps
// (local.WordSleeper) until its next subround or the final round, and the
// word loop wakes it early when a neighbour's new color arrives. The
// subround is derived from r, so a node called every round (the boxed
// oracle, faulty runs) gives the same result. The color's group and
// in-group index are cached whenever the color changes (setColor). Colors
// are below n, which fits int32 as every CSR node index does.
type colorNode struct {
	run   *colorRun
	used  []uint64 // palette bitmap of greedyPick when Δ+1 > smallPalette
	lo    int32    // the node's ports cache at run.cache[lo : lo+deg]
	deg   int32
	color int32
	base  int32 // first color of the group's Δ+1 palette: (color/s)·(Δ+1)
	j     int32 // color mod s: the KW subround in which the node recolors
	idx   int32
}

// setColor sets the node's color and caches its KW group and index.
func (c *colorNode) setColor(color int) {
	target := c.run.maxDeg + 1
	s := 2 * target
	c.color, c.base, c.j = int32(color), int32(color/s*target), int32(color%s)
}

var _ local.WordSleeper = (*colorNode)(nil)

// RoundW implements local.WordNode.
//
//splitlint:zeroalloc
func (c *colorNode) RoundW(r int, recv, send []local.Word) bool {
	run := c.run
	cache := run.cache[c.lo : c.lo+c.deg]
	for p, m := range recv {
		if m != local.NilWord {
			cache[p] = int32(m.Int())
		}
	}
	changed := false
	switch {
	case r == 1:
		changed = true // announce the initial color (the ID)
		if run.maxDeg+1 > smallPalette {
			//lint:alloc one-time init on the node's first round, only on graphs whose palette outgrows greedyPick's stack bitmap
			c.used = make([]uint64, (run.maxDeg+64)/64)
		}
	case r <= 1+len(run.linial):
		st := run.linial[r-2]
		if nc := linialRecolor(int(c.color), cache, st); nc != int(c.color) {
			c.setColor(nc)
			changed = true
		}
	default:
		// KW reduction, at subround (r-kw0) mod s of its pass.
		if len(run.kw) == 0 {
			// No KW pass: the schedule is exhausted.
			run.out[c.idx] = int(c.color)
			return true
		}
		target := run.maxDeg + 1
		// Group and in-group index follow the current color (setColor);
		// every node's index comes up exactly once per pass, and
		// simultaneous recolorers in the same subround have colors that
		// agree mod s and hence lie in different groups with disjoint
		// palettes, so properness is an invariant.
		if (r-run.kw0)%(2*target) == int(c.j) {
			var small [smallPalette / 64]uint64
			used := small[:]
			if c.used != nil {
				used = c.used
			}
			if nc := greedyPick(int(c.base), target, cache, used); nc != int(c.color) {
				c.setColor(nc)
				changed = true
			}
		}
		if r == run.last {
			run.out[c.idx] = int(c.color)
			if changed {
				c.broadcast(send)
			}
			return true
		}
	}
	if len(run.linial) == 0 && len(run.kw) == 0 {
		run.out[c.idx] = int(c.color)
		return true
	}
	if changed {
		c.broadcast(send)
	}
	return false
}

// WakeW implements local.WordSleeper: every Linial round, then in KW the
// node's next subround j or the final round, whichever comes first.
//
//splitlint:zeroalloc
func (c *colorNode) WakeW(r int) int {
	run := c.run
	next := r + 1
	if next < run.kw0 || len(run.kw) == 0 {
		return next
	}
	s := 2 * (run.maxDeg + 1)
	return min(next+(int(c.j)-(next-run.kw0)%s+s)%s, run.last)
}

//splitlint:zeroalloc
func (c *colorNode) broadcast(send []local.Word) {
	local.Broadcast(send, local.MakeIntWord(1, int(c.color)))
}

// linialRecolor performs one Linial step: encode the color as a polynomial
// over GF(q) and find an evaluation point x whose value differs from every
// neighbor's polynomial at x.
//
//splitlint:zeroalloc
func linialRecolor(color int, nbrColors []int32, st linialStep) int {
	for x := 0; x < st.q; x++ {
		ok := true
		vx := st.eval(color, x)
		for _, c := range nbrColors {
			nc := int(c)
			if nc == color {
				continue // improper input would break Linial; IDs are proper
			}
			if st.eval(nc, x) == vx {
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

// eval evaluates at x, over GF(q), the polynomial whose coefficients are
// c's L low base-q digits (the lowest digit is the constant term), by
// Horner's rule from the highest digit down. The digits are read off c
// directly, so a recoloring allocates nothing.
func (st linialStep) eval(c, x int) int {
	v := 0
	for div := st.top; div > 0; div /= st.q {
		v = (v*x + c/div%st.q) % st.q
	}
	return v
}

// smallPalette is the largest palette greedyPick marks in a stack bitmap;
// nodes of graphs with Δ+1 above it carry their own bitmap.
const smallPalette = 256

// greedyPick returns the smallest color in [base, base+size) not present in
// taken. used is its scratch bitmap, at least size bits long; it is cleared
// before use.
//
//splitlint:zeroalloc
func greedyPick(base, size int, taken []int32, used []uint64) int {
	used = used[:(size+63)/64]
	clear(used)
	for _, c := range taken {
		if i := int(c) - base; i >= 0 && i < size {
			used[i>>6] |= 1 << (i & 63)
		}
	}
	for w, bs := range used {
		if bs != ^uint64(0) {
			if free := 64*w + bits.TrailingZeros64(^bs); free < size {
				return base + free
			}
			break
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
	run := &colorRun{
		maxDeg: maxDeg,
		linial: lin,
		kw:     kw,
		kw0:    2 + len(lin),
		last:   1 + len(lin) + 2*(maxDeg+1)*len(kw),
		cache:  make([]int32, 2*g.M()),
		out:    make([]int, n),
	}
	for i := range run.cache {
		run.cache[i] = -1
	}
	// The engine calls the factory once per node, in node order: node idx
	// takes the next deg cache slots.
	idx, lo := 0, 0
	factory := func(v local.View) local.Node {
		node := &colorNode{run: run, lo: int32(lo), deg: int32(v.Deg), idx: int32(idx)}
		node.setColor(v.ID)
		idx++
		lo += v.Deg
		return local.WordProgram(node)
	}
	topo := local.NewTopology(g)
	stats, err := eng.Run(topo, factory, opts)
	if err != nil {
		return nil, fmt.Errorf("coloring: %w", err)
	}
	res := &Result{Colors: run.out, Num: maxDeg + 1, Stats: stats}
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
func GreedySequential(g *graph.Graph) *Result { return Greedy(g, g.MaxDeg()) }

// Rows is a graph read one neighbour row at a time: Neighbors(v) lists v's
// distinct neighbours in any order, valid until the next call. Both
// *graph.Graph and the implicit power graph *graph.PowerRows are Rows.
type Rows interface {
	N() int
	Neighbors(v int) []int32
}

// Greedy colors nodes in index order with the smallest color free among
// their neighbours, reading each row once, so rows may be computed on the
// fly. maxDeg must bound every row's length; colors then fit in
// [0, maxDeg].
func Greedy(rows Rows, maxDeg int) *Result {
	n := rows.N()
	colors := make([]int, n)
	for i := range colors {
		colors[i] = -1
	}
	// Every color is at most its node's degree, so colors fit in
	// maxDeg+1 slots; used[c+1] == v+1 marks color c taken around v, and
	// the stamp never needs clearing. Slot 0 takes the marks of uncolored
	// neighbours (color −1): an unsorted row mixes them with colored ones
	// at random, which a branch would mispredict.
	used := make([]int32, maxDeg+2)
	maxC := 0
	for v := 0; v < n; v++ {
		stamp := int32(v + 1)
		for _, w := range rows.Neighbors(v) {
			used[colors[w]+1] = stamp
		}
		c := 0
		for used[c+1] == stamp {
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
// graphs. It counts the two schedules with their step functions and
// allocates nothing.
func EstimateRounds(n, maxDeg int) int {
	if n == 0 {
		return 0
	}
	lin, k := 0, n
	for st, ok := linialNext(k, maxDeg); ok; st, ok = linialNext(k, maxDeg) {
		lin++
		k = st.q * st.q
	}
	kw := 0
	for ; k > maxDeg+1; k = kwNext(k, maxDeg) {
		kw++
	}
	return 1 + lin + 2*(maxDeg+1)*kw + 1
}
