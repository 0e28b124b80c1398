package graph

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
)

// RandomGraph returns an Erdős–Rényi graph G(n, p).
func RandomGraph(n int, p float64, rng *rand.Rand) *Graph {
	bld := NewCSRBuilder(n, 0)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				bld.Edge(int32(u), int32(v))
			}
		}
	}
	return fromCSR(bld.Build())
}

// RandomSparseGraph returns a random simple graph on n nodes with at most m
// edges, drawn as m uniform endpoint pairs (self loops and duplicates are
// discarded). It is the O(m) counterpart of RandomGraph for instances large
// enough that the O(n²) G(n, p) scan is prohibitive; the degree distribution
// is Poisson-like with mean ≈ 2m/n.
func RandomSparseGraph(n, m int, rng *rand.Rand) *Graph {
	if n < 2 {
		return NewGraph(n)
	}
	bld := NewCSRBuilder(n, m)
	for i := 0; i < m; i++ {
		u := int32(rng.IntN(n))
		v := int32(rng.IntN(n))
		if u == v {
			continue
		}
		bld.Edge(u, v)
	}
	return fromCSR(bld.Build())
}

// ceilLog2 returns ⌈log₂(n)⌉ for n ≥ 1, and 0 for n ≤ 1.
func ceilLog2(n int) int {
	k := 0
	for x := 1; x < n; x <<= 1 {
		k++
	}
	return k
}

// powerLawDegree draws one target degree from the truncated power law
// P(D ≥ k) = k^(1-gamma) on [1, maxDeg] by inverse-transform sampling; the
// pmf decays like d^-gamma. The draw is clamped while still a float: near
// the gamma clamp the tail exponent is ~20, so u^(-1/(gamma-1)) overflows
// int for small u, and int(overflow) is MinInt64 — which would silently
// turn the heaviest draws into degree-1 nodes.
func powerLawDegree(gamma float64, maxDeg int, rng *rand.Rand) int {
	u := 1 - rng.Float64() // (0, 1]
	x := math.Pow(u, -1/(gamma-1))
	if x >= float64(maxDeg) {
		return maxDeg
	}
	if x < 1 {
		return 1
	}
	return int(x)
}

// RandomPowerLawGraph returns a random simple graph on n nodes whose degree
// sequence follows a truncated power law: per-node targets are drawn from
// P(d) ∝ d^-gamma on [1, maxDeg] (gamma > 1; 2–3 gives the social/web-shaped
// skew) and realized by configuration-model stub pairing, with self loops
// dropped and parallel edges merged by the builder. Targets are assigned in
// descending order — hubs get the low node indices, the age–degree
// correlation preferential-attachment growth and crawl-ordered datasets
// exhibit. The construction streams through the CSR builder in O(m) work
// (plus one sort of the n degree targets) with a constant number of
// allocations, like RandomSparseGraph — but unlike it a few hub nodes hold
// a large share of all arcs, and the hubs cluster in index space: exactly
// the shape under which node-count-balanced scheduling serializes on the
// hub shard and arc-balanced sharding is measurable (the powerlaw100k
// benchmark case).
func RandomPowerLawGraph(n int, gamma float64, maxDeg int, rng *rand.Rand) *Graph {
	if n < 2 {
		return NewGraph(n)
	}
	if gamma <= 1.05 {
		gamma = 1.05 // the tail exponent must stay integrable
	}
	if maxDeg >= n {
		maxDeg = n - 1
	}
	if maxDeg < 1 {
		maxDeg = 1
	}
	degs := make([]int, n)
	total := 0
	for v := range degs {
		degs[v] = powerLawDegree(gamma, maxDeg, rng)
		total += degs[v]
	}
	slices.SortFunc(degs, func(a, b int) int { return b - a })
	stubs := make([]int32, 0, total)
	for v, d := range degs {
		for ; d > 0; d-- {
			stubs = append(stubs, int32(v))
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	bld := NewCSRBuilder(n, len(stubs)/2)
	for i := 0; i+1 < len(stubs); i += 2 {
		if stubs[i] != stubs[i+1] {
			bld.Edge(stubs[i], stubs[i+1])
		}
	}
	return fromCSR(bld.Build())
}

// RandomBipartitePowerLaw returns a bipartite graph whose left degrees
// follow the truncated power law P(d) ∝ d^-gamma shifted to
// [δmin, maxDeg], with δmin = 2·⌈log₂(nu+nv)⌉ — the weak-splitting
// solvability floor (below δ ≈ 2·log n even the existence of a splitting
// is not guaranteed, so the skew lives in the tail, where it belongs) —
// and neighbors chosen uniformly without replacement. The skewed-workload
// counterpart of RandomBipartiteLeftRegular for CLI sweeps
// (wsplit -gen powerlaw); maxDeg must be ≥ δmin.
func RandomBipartitePowerLaw(nu, nv int, gamma float64, maxDeg int, rng *rand.Rand) (*Bipartite, error) {
	if maxDeg > nv {
		return nil, fmt.Errorf("graph: power-law max degree %d > |V| = %d", maxDeg, nv)
	}
	dMin := 2 * ceilLog2(nu+nv)
	if maxDeg < dMin {
		return nil, fmt.Errorf("graph: power-law max degree %d < solvability floor δmin = %d", maxDeg, dMin)
	}
	if gamma <= 1.05 {
		gamma = 1.05
	}
	b := NewBipartite(nu, nv)
	perm := make([]int32, nv)
	for i := range perm {
		perm[i] = int32(i)
	}
	for u := 0; u < nu; u++ {
		// Shift the draw: the power-law tail rides on top of the floor.
		d := min(maxDeg, dMin-1+powerLawDegree(gamma, maxDeg, rng))
		// Partial Fisher-Yates: draw d distinct right nodes.
		for i := 0; i < d; i++ {
			j := i + rng.IntN(nv-i)
			perm[i], perm[j] = perm[j], perm[i]
			b.addEdgeUnchecked(int32(u), perm[i])
		}
	}
	b.Normalize()
	return b, nil
}

// RandomRegular returns a d-regular simple graph on n nodes (n*d must be
// even, d < n) via the configuration model with rejection: the stub pairing
// is re-drawn until it contains no self loop or parallel edge. For d = o(√n)
// this succeeds in O(1) expected attempts.
func RandomRegular(n, d int, rng *rand.Rand) (*Graph, error) {
	if n*d%2 != 0 {
		return nil, fmt.Errorf("graph: n*d = %d*%d is odd", n, d)
	}
	if d >= n {
		return nil, fmt.Errorf("graph: degree %d >= n %d", d, n)
	}
	stubs := make([]int32, n*d)
	for i := range stubs {
		stubs[i] = int32(i / d)
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	// Pair consecutive stubs, then repair self loops and parallel edges by
	// double-edge swaps, which preserve the degree sequence.
	nPairs := len(stubs) / 2
	pairKey := func(i int) int64 {
		lo, hi := stubs[2*i], stubs[2*i+1]
		if lo > hi {
			lo, hi = hi, lo
		}
		return int64(lo)<<32 | int64(hi)
	}
	count := make(map[int64]int, nPairs)
	for i := 0; i < nPairs; i++ {
		count[pairKey(i)]++
	}
	bad := func(i int) bool {
		return stubs[2*i] == stubs[2*i+1] || count[pairKey(i)] > 1
	}
	maxSwaps := 200 * nPairs
	for swaps := 0; swaps < maxSwaps; swaps++ {
		// Find a bad pair (scan from a random start to avoid bias).
		badIdx := -1
		start := rng.IntN(nPairs)
		for off := 0; off < nPairs; off++ {
			if i := (start + off) % nPairs; bad(i) {
				badIdx = i
				break
			}
		}
		if badIdx < 0 {
			bld := NewCSRBuilder(n, nPairs)
			for i := 0; i < nPairs; i++ {
				bld.Edge(stubs[2*i], stubs[2*i+1])
			}
			return fromCSR(bld.Build()), nil
		}
		j := rng.IntN(nPairs)
		if j == badIdx {
			continue
		}
		// Swap one endpoint of each pair and keep the result only if it does
		// not increase the number of bad pairs.
		before := boolToInt(bad(badIdx)) + boolToInt(bad(j))
		count[pairKey(badIdx)]--
		count[pairKey(j)]--
		stubs[2*badIdx+1], stubs[2*j+1] = stubs[2*j+1], stubs[2*badIdx+1]
		count[pairKey(badIdx)]++
		count[pairKey(j)]++
		after := boolToInt(bad(badIdx)) + boolToInt(bad(j))
		if after >= before {
			count[pairKey(badIdx)]--
			count[pairKey(j)]--
			stubs[2*badIdx+1], stubs[2*j+1] = stubs[2*j+1], stubs[2*badIdx+1]
			count[pairKey(badIdx)]++
			count[pairKey(j)]++
		}
	}
	return nil, fmt.Errorf("graph: random %d-regular on %d nodes: repair did not converge", d, n)
}

// RandomBipartiteLeftRegular returns a bipartite graph where every left node
// has exactly degree d, with neighbors chosen uniformly without replacement
// from V. Right-side degrees concentrate around nu*d/nv.
func RandomBipartiteLeftRegular(nu, nv, d int, rng *rand.Rand) (*Bipartite, error) {
	if d > nv {
		return nil, fmt.Errorf("graph: left degree %d > |V| = %d", d, nv)
	}
	d = max(d, 0)
	if nu*d > maxCSRArcs {
		return nil, fmt.Errorf("graph: %d×%d edges exceed the int32 CSR layout limit of %d", nu, d, maxCSRArcs)
	}
	// Row u of draws is edges[u*d:(u+1)*d], in draw order. The draws of a
	// row are distinct, so two counting transposes normalize the graph
	// with no sort: the first yields V rows ascending in u, the second U
	// rows ascending in v.
	off := make([]int32, nu+1)
	edges := make([]int32, nu*d)
	perm := make([]int32, nv)
	for i := range perm {
		perm[i] = int32(i)
	}
	for u := 0; u < nu; u++ {
		row := edges[u*d : (u+1)*d]
		// Partial Fisher-Yates: draw d distinct right nodes.
		for i := range row {
			j := i + rng.IntN(nv-i)
			perm[i], perm[j] = perm[j], perm[i]
			row[i] = perm[i]
		}
		off[u+1] = int32((u + 1) * d)
	}
	v := transposeRows(CSR{Off: off, Edges: edges}, nv)
	return &Bipartite{u: transposeRows(v, nu), v: v}, nil
}

// RandomBipartiteBiregular returns a bipartite graph where every left node
// has degree exactly dU and right-side degrees differ by at most one
// (they are ⌊nu·dU/nv⌋ or ⌈nu·dU/nv⌉). It pairs left stubs with a balanced,
// shuffled multiset of right slots and repairs the few parallel edges by
// swapping.
func RandomBipartiteBiregular(nu, nv, dU int, rng *rand.Rand) (*Bipartite, error) {
	total := nu * dU
	if nv <= 0 || nu <= 0 {
		return nil, fmt.Errorf("graph: empty side nu=%d nv=%d", nu, nv)
	}
	if total < nv {
		return nil, fmt.Errorf("graph: %d edges cannot give every right node a slot (nv=%d)", total, nv)
	}
	if dU > nv {
		return nil, fmt.Errorf("graph: left degree %d > |V| = %d", dU, nv)
	}
	slots := make([]int32, total)
	for i := range slots {
		slots[i] = int32(i % nv)
	}
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	// slots[u*dU : (u+1)*dU] are u's neighbors; repair duplicates within a
	// block by swapping with random slots of other blocks (degree sequences
	// on both sides are preserved by any swap).
	// seen[v] == u+1 once v has occurred in block u.
	seen := make([]int32, nv)
	dupInBlock := func(u int) int { // returns slot index of a duplicate, or -1
		for i := 0; i < dU; i++ {
			v := slots[u*dU+i]
			if seen[v] == int32(u+1) {
				return u*dU + i
			}
			seen[v] = int32(u + 1)
		}
		return -1
	}
	blockHas := func(u int, v int32) bool {
		for i := 0; i < dU; i++ {
			if slots[u*dU+i] == v {
				return true
			}
		}
		return false
	}
	// A swap is made only when it creates no duplicate, so blocks found
	// clean stay clean and the scan for the first bad block resumes where
	// it stopped. The bad block itself is scanned again on the next pass,
	// so its stamps are cleared first.
	maxSwaps := 200 * total
	clean := 0 // blocks [0, clean) hold no duplicate
	for swaps := 0; swaps < maxSwaps; swaps++ {
		badSlot := -1
		for ; clean < nu; clean++ {
			if s := dupInBlock(clean); s >= 0 {
				badSlot = s
				break
			}
		}
		if badSlot < 0 {
			// Every block is duplicate-free: the blocks are the U rows in
			// slot order, and two counting transposes sort them.
			off := make([]int32, nu+1)
			for u := range nu {
				off[u+1] = int32((u + 1) * dU)
			}
			v := transposeRows(CSR{Off: off, Edges: slots}, nv)
			return &Bipartite{u: transposeRows(v, nu), v: v}, nil
		}
		for i := 0; i < dU; i++ {
			seen[slots[clean*dU+i]] = 0
		}
		j := rng.IntN(total)
		uBad, uOther := badSlot/dU, j/dU
		if uBad == uOther {
			continue
		}
		// Swap only if it removes the duplicate without creating new ones.
		if blockHas(uBad, slots[j]) || blockHas(uOther, slots[badSlot]) {
			continue
		}
		slots[badSlot], slots[j] = slots[j], slots[badSlot]
	}
	return nil, fmt.Errorf("graph: biregular bipartite (nu=%d nv=%d dU=%d): repair did not converge", nu, nv, dU)
}

// RandomBipartiteDegreeRange returns a bipartite graph in which every left
// node independently gets a degree drawn uniformly from [dMin, dMax] and
// neighbors chosen without replacement, producing the "nearly regular"
// instances of Theorem 1.1 when dMax/dMin is small.
func RandomBipartiteDegreeRange(nu, nv, dMin, dMax int, rng *rand.Rand) (*Bipartite, error) {
	if dMin > dMax || dMax > nv {
		return nil, fmt.Errorf("graph: bad degree range [%d,%d] with nv=%d", dMin, dMax, nv)
	}
	b := NewBipartite(nu, nv)
	perm := make([]int32, nv)
	for i := range perm {
		perm[i] = int32(i)
	}
	for u := 0; u < nu; u++ {
		d := dMin + rng.IntN(dMax-dMin+1)
		for i := 0; i < d; i++ {
			j := i + rng.IntN(nv-i)
			perm[i], perm[j] = perm[j], perm[i]
			b.addEdgeUnchecked(int32(u), perm[i])
		}
	}
	b.Normalize()
	return b, nil
}

// Cycle returns the cycle C_n (n >= 3).
func Cycle(n int) *Graph {
	bld := NewCSRBuilder(n, n)
	for i := 0; i < n; i++ {
		bld.Edge(int32(i), int32((i+1)%n))
	}
	return fromCSR(bld.Build())
}

// PathGraph returns the path P_n.
func PathGraph(n int) *Graph {
	bld := NewCSRBuilder(n, n)
	for i := 0; i+1 < n; i++ {
		bld.Edge(int32(i), int32(i+1))
	}
	return fromCSR(bld.Build())
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	bld := NewCSRBuilder(n, n*(n-1)/2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			bld.Edge(int32(u), int32(v))
		}
	}
	return fromCSR(bld.Build())
}

// CompleteBipartite returns K_{nu,nv} as a Bipartite.
func CompleteBipartite(nu, nv int) *Bipartite {
	b := NewBipartite(nu, nv)
	for u := 0; u < nu; u++ {
		for v := 0; v < nv; v++ {
			b.addEdgeUnchecked(int32(u), int32(v))
		}
	}
	b.Normalize()
	return b
}

// HighGirthTree returns a bipartite graph of girth ∞ (a tree) in which every
// left node has degree ≥ d: it is the complete d-ary tree of the given odd
// depth with even levels on the U side and odd levels on the V side, so all
// leaves land in V and every U node has degree d or d+1. Section 5 requires
// girth ≥ 10, which trees satisfy vacuously; rank is d+1.
func HighGirthTree(d, depth int) (*Bipartite, error) {
	if depth%2 == 0 {
		return nil, fmt.Errorf("graph: depth %d must be odd so leaves are on the V side", depth)
	}
	if d < 2 {
		return nil, fmt.Errorf("graph: arity %d < 2", d)
	}
	type nodeRef struct {
		side  byte
		index int32
	}
	var nu, nv int
	var edges [][2]int
	// BFS construction level by level.
	level := []nodeRef{{'U', 0}}
	nu = 1
	for l := 0; l < depth; l++ {
		next := make([]nodeRef, 0, len(level)*d)
		for _, parent := range level {
			for c := 0; c < d; c++ {
				var child nodeRef
				if (l+1)%2 == 0 {
					child = nodeRef{'U', int32(nu)}
					nu++
				} else {
					child = nodeRef{'V', int32(nv)}
					nv++
				}
				if parent.side == 'U' {
					edges = append(edges, [2]int{int(parent.index), int(child.index)})
				} else {
					edges = append(edges, [2]int{int(child.index), int(parent.index)})
				}
				next = append(next, child)
			}
		}
		level = next
	}
	return BipartiteFromEdges(nu, nv, edges)
}

// SubdividedCycleBipartite returns the cycle C_{2k} viewed as a bipartite
// graph (even positions in U, odd in V); its girth is 2k, which is ≥ 10 for
// k ≥ 5. Every node has degree exactly 2.
func SubdividedCycleBipartite(k int) (*Bipartite, error) {
	if k < 2 {
		return nil, fmt.Errorf("graph: need k >= 2, got %d", k)
	}
	edges := make([][2]int, 0, 2*k)
	for i := 0; i < k; i++ {
		// U_i -- V_i -- U_{i+1}
		edges = append(edges, [2]int{i, i}, [2]int{(i + 1) % k, i})
	}
	return BipartiteFromEdges(k, k, edges)
}

// EnsureGirthAtLeast removes one edge from every cycle shorter than g until
// the bipartite graph has girth ≥ g (or is acyclic). It returns the repaired
// graph and the number of removed edges. Left-side degrees can shrink, so
// callers should re-check MinDegU. Used to build random-ish high-girth
// instances for Section 5 experiments.
func EnsureGirthAtLeast(b *Bipartite, g int) (*Bipartite, int) {
	cur := b.Clone()
	removed := 0
	for {
		girth := cur.Girth()
		if girth == 0 || girth >= g {
			return cur, removed
		}
		u, v, ok := findShortCycleEdge(cur, girth)
		if !ok {
			return cur, removed
		}
		cur = cur.SubgraphKeepEdges(func(uu, vv int) bool { return !(uu == u && vv == v) })
		removed++
	}
}

// findShortCycleEdge locates one edge lying on some cycle of length exactly
// `target` and returns its (u, v) endpoints.
func findShortCycleEdge(b *Bipartite, target int) (int, int, bool) {
	gg := b.AsGraph()
	n := gg.N()
	nu := b.NU()
	dist := make([]int32, n)
	parent := make([]int32, n)
	for s := 0; s < n; s++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		parent[s] = -1
		queue := []int32{int32(s)}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range gg.Neighbors(int(v)) {
				if w == parent[v] {
					parent[v] = -2
					continue
				}
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					parent[w] = v
					queue = append(queue, w)
				} else if int(dist[v]+dist[w]+1) <= target {
					// The edge {v, w} closes a short cycle; return it in
					// bipartite (u, v) coordinates.
					a, bb := int(v), int(w)
					if a >= nu {
						a, bb = bb, a
					}
					return a, bb - nu, true
				}
			}
			parent[v] = -2
		}
	}
	return 0, 0, false
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// SubdividedStar returns a high-girth bipartite instance with large left
// degrees and rank 2: a two-level tree of U-nodes whose edges are
// subdivided by degree-2 V-nodes, topped up with pendant (degree-1)
// V-leaves so every U-node has degree exactly d. Girth is infinite (a
// tree), δ = d, r = 2 — the regime where Theorem 5.2's potential argument
// goes through at simulation scale.
func SubdividedStar(d int) (*Bipartite, error) {
	if d < 2 {
		return nil, fmt.Errorf("graph: SubdividedStar needs d ≥ 2, got %d", d)
	}
	// U: root 0, children 1..d. V: internal connectors 0..d-1 (root–child),
	// then d·(d-1) pendant leaves under the children.
	nu := 1 + d
	nv := d + d*(d-1)
	b := NewBipartite(nu, nv)
	for i := 0; i < d; i++ {
		// Root – connector i – child i+1.
		if err := b.AddEdge(0, i); err != nil {
			return nil, err
		}
		if err := b.AddEdge(1+i, i); err != nil {
			return nil, err
		}
	}
	next := d
	for c := 1; c <= d; c++ {
		for j := 0; j < d-1; j++ {
			if err := b.AddEdge(c, next); err != nil {
				return nil, err
			}
			next++
		}
	}
	b.Normalize()
	return b, nil
}
