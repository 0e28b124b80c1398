package graph

// Reference differential for the transforms on the solver path. The
// rewritten functions build their CSR arrays directly; the references below
// are the generic construction they replaced — list every edge, then build
// through BipartiteFromEdges (or CSRBuilder.Edge): a counting fill, sort and
// dedup per side that shares no code with transposeRows — kept here as the
// oracle, the way fused_test.go keeps the unfused delivery path. Every rewritten function must match its reference array
// for array, on hand-built degenerate instances, on generated ones and on
// fuzzed edge lists.

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// refFromEdges is BipartiteFromEdges on edges the caller built in range.
func refFromEdges(nu, nv int, edges [][2]int) *Bipartite {
	b, err := BipartiteFromEdges(nu, nv, edges)
	if err != nil {
		panic(err)
	}
	return b
}

// refLeftRegular is RandomBipartiteLeftRegular through BipartiteFromEdges.
func refLeftRegular(nu, nv, d int, rng *rand.Rand) *Bipartite {
	var edges [][2]int
	perm := make([]int32, nv)
	for i := range perm {
		perm[i] = int32(i)
	}
	for u := 0; u < nu; u++ {
		for i := 0; i < d; i++ {
			j := i + rng.IntN(nv-i)
			perm[i], perm[j] = perm[j], perm[i]
			edges = append(edges, [2]int{u, int(perm[i])})
		}
	}
	return refFromEdges(nu, nv, edges)
}

// refBiregular is RandomBipartiteBiregular with a map per duplicate scan,
// a rescan from the first block after every swap attempt and
// BipartiteFromEdges.
func refBiregular(nu, nv, dU int, rng *rand.Rand) *Bipartite {
	total := nu * dU
	slots := make([]int32, total)
	for i := range slots {
		slots[i] = int32(i % nv)
	}
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	dupInBlock := func(u int) int {
		seen := make(map[int32]int, dU)
		for i := 0; i < dU; i++ {
			v := slots[u*dU+i]
			if _, dup := seen[v]; dup {
				return u*dU + i
			}
			seen[v] = i
		}
		return -1
	}
	blockHas := func(u int, v int32) bool {
		return slices.Contains(slots[u*dU:(u+1)*dU], v)
	}
	for swaps := 0; swaps < 200*total; swaps++ {
		badSlot := -1
		for u := 0; u < nu; u++ {
			if s := dupInBlock(u); s >= 0 {
				badSlot = s
				break
			}
		}
		if badSlot < 0 {
			var edges [][2]int
			for u := 0; u < nu; u++ {
				for i := 0; i < dU; i++ {
					edges = append(edges, [2]int{u, int(slots[u*dU+i])})
				}
			}
			return refFromEdges(nu, nv, edges)
		}
		j := rng.IntN(total)
		uBad, uOther := badSlot/dU, j/dU
		if uBad == uOther || blockHas(uBad, slots[j]) || blockHas(uOther, slots[badSlot]) {
			continue
		}
		slots[badSlot], slots[j] = slots[j], slots[badSlot]
	}
	return nil
}

// refNormalizeLeftDegrees is NormalizeLeftDegrees through
// BipartiteFromEdges (argument checks omitted: callers compare error presence).
func refNormalizeLeftDegrees(b *Bipartite, delta int) *VirtualSplit {
	partsOf := func(d int) int {
		if d > 2*delta {
			return d / delta
		}
		return 1
	}
	var nuVirtual int
	for u := 0; u < b.NU(); u++ {
		nuVirtual += partsOf(b.DegU(u))
	}
	var origin []int
	var edges [][2]int
	uid := 0
	for u := 0; u < b.NU(); u++ {
		nbrs := b.NbrU(u)
		d := len(nbrs)
		parts := partsOf(d)
		base, extra := d/parts, d%parts
		at := 0
		for p := 0; p < parts; p++ {
			size := base
			if p < extra {
				size++
			}
			for _, v := range nbrs[at : at+size] {
				edges = append(edges, [2]int{uid, int(v)})
			}
			origin = append(origin, u)
			uid++
			at += size
		}
	}
	return &VirtualSplit{B: refFromEdges(nuVirtual, b.NV(), edges), Origin: origin}
}

// refTruncateLeftDegrees is TruncateLeftDegrees through BipartiteFromEdges.
func refTruncateLeftDegrees(b *Bipartite, keep int) *Bipartite {
	var edges [][2]int
	for u := 0; u < b.NU(); u++ {
		take := b.NbrU(u)
		if len(take) > keep {
			take = take[:keep]
		}
		for _, v := range take {
			edges = append(edges, [2]int{u, int(v)})
		}
	}
	return refFromEdges(b.NU(), b.NV(), edges)
}

// refVPower is VPower through CSRBuilder: each pair once, both arcs, then
// the builder's sort and dedup.
func refVPower(b *Bipartite, k int) *Graph {
	nv := b.NV()
	bld := NewCSRBuilder(nv, 0)
	visitedV := make([]int32, nv)
	visitedU := make([]int32, b.NU())
	for i := range visitedV {
		visitedV[i] = -1
	}
	for i := range visitedU {
		visitedU[i] = -1
	}
	var frontier, next []int32
	for s := 0; s < nv; s++ {
		visitedV[s] = int32(s)
		frontier = append(frontier[:0], int32(s))
		for hop := 0; hop < k; hop++ {
			next = next[:0]
			for _, v := range frontier {
				for _, u := range b.NbrV(int(v)) {
					if visitedU[u] == int32(s) {
						continue
					}
					visitedU[u] = int32(s)
					for _, w := range b.NbrU(int(u)) {
						if visitedV[w] != int32(s) {
							visitedV[w] = int32(s)
							next = append(next, w)
							if int(w) > s {
								bld.Edge(int32(s), w)
							}
						}
					}
				}
			}
			frontier, next = next, frontier
		}
	}
	return fromCSR(bld.Build())
}

// refInducedSubgraph is InducedSubgraph with map relabels and
// BipartiteFromEdges.
func refInducedSubgraph(b *Bipartite, usKeep, vsKeep []int) *Bipartite {
	vIdx := make(map[int]int, len(vsKeep))
	for i, v := range vsKeep {
		vIdx[v] = i
	}
	var edges [][2]int
	for i, u := range usKeep {
		for _, v := range b.NbrU(u) {
			if j, ok := vIdx[int(v)]; ok {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	return refFromEdges(len(usKeep), len(vsKeep), edges)
}

// refConnectedComponents is ConnectedComponents with one FIFO queue over
// both sides and a fresh slice per component.
func refConnectedComponents(b *Bipartite) (us [][]int, vs [][]int) {
	nu, nv := b.NU(), b.NV()
	seenU := make([]bool, nu)
	seenV := make([]bool, nv)
	type item struct {
		isU bool
		idx int32
	}
	var queue []item
	for s := 0; s < nu; s++ {
		if seenU[s] {
			continue
		}
		seenU[s] = true
		queue = append(queue[:0], item{true, int32(s)})
		cu := []int{s}
		var cv []int
		for len(queue) > 0 {
			it := queue[0]
			queue = queue[1:]
			if it.isU {
				for _, v := range b.NbrU(int(it.idx)) {
					if !seenV[v] {
						seenV[v] = true
						cv = append(cv, int(v))
						queue = append(queue, item{false, v})
					}
				}
			} else {
				for _, u := range b.NbrV(int(it.idx)) {
					if !seenU[u] {
						seenU[u] = true
						cu = append(cu, int(u))
						queue = append(queue, item{true, u})
					}
				}
			}
		}
		us = append(us, cu)
		vs = append(vs, cv)
	}
	for v := 0; v < nv; v++ {
		if !seenV[v] {
			us = append(us, nil)
			vs = append(vs, []int{v})
		}
	}
	return us, vs
}

// sameBipartite fails t unless got and want have identical CSR sides.
func sameBipartite(t *testing.T, what string, got, want *Bipartite) {
	t.Helper()
	if !sameCSR(got.CSRU(), want.CSRU()) {
		t.Fatalf("%s: U side differs from the reference\n got %v\nwant %v", what, got.CSRU(), want.CSRU())
	}
	if !sameCSR(got.CSRV(), want.CSRV()) {
		t.Fatalf("%s: V side differs from the reference\n got %v\nwant %v", what, got.CSRV(), want.CSRV())
	}
}

// sameLists fails t unless two per-component lists agree entry by entry,
// nil-ness included.
func sameLists(t *testing.T, what string, got, want [][]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d components, reference has %d", what, len(got), len(want))
	}
	for i := range got {
		if (got[i] == nil) != (want[i] == nil) || !slices.Equal(got[i], want[i]) {
			t.Fatalf("%s: component %d is %v, reference has %v", what, i, got[i], want[i])
		}
	}
}

// checkTransformsMatch runs every rewritten transform of b against its
// reference. rng drives the subsets handed to InducedSubgraph.
func checkTransformsMatch(t *testing.T, b *Bipartite, rng *rand.Rand) {
	t.Helper()
	minDeg, maxDeg := b.MinDegU(), b.MaxDegU()

	for _, delta := range []int{-1, 0, 1, 2, max(1, minDeg/2), minDeg, minDeg + 1} {
		got, err := NormalizeLeftDegrees(b, delta)
		if wantErr := delta <= 0 || delta > minDeg; (err != nil) != wantErr {
			t.Fatalf("NormalizeLeftDegrees(δ=%d) error = %v, want error %v (min degree %d)", delta, err, wantErr, minDeg)
		}
		if err != nil {
			continue
		}
		want := refNormalizeLeftDegrees(b, delta)
		sameBipartite(t, "NormalizeLeftDegrees", got.B, want.B)
		if !slices.Equal(got.Origin, want.Origin) {
			t.Fatalf("NormalizeLeftDegrees(δ=%d) origin %v, reference %v", delta, got.Origin, want.Origin)
		}
		if maxDeg <= 2*delta {
			checkNoSplit(t, b, got, delta)
		}
	}

	for _, keep := range []int{0, 1, 2, minDeg, maxDeg - 1, maxDeg, maxDeg + 1} {
		if keep < 0 {
			continue
		}
		sameBipartite(t, "TruncateLeftDegrees", TruncateLeftDegrees(b, keep), refTruncateLeftDegrees(b, keep))
	}

	for k := 0; k <= 3; k++ {
		if got, want := b.VPower(k).CSR(), refVPower(b, k).CSR(); !sameCSR(got, want) {
			t.Fatalf("VPower(%d) differs from the reference\n got %v\nwant %v", k, got, want)
		}
	}
	checkBelow(t, b, b.PowerRows(1), refVPower(b, 1))

	us, vs := b.ConnectedComponents()
	rus, rvs := refConnectedComponents(b)
	sameLists(t, "ConnectedComponents U lists", us, rus)
	sameLists(t, "ConnectedComponents V lists", vs, rvs)
	for ci := range us {
		sub, _, _ := b.InducedSubgraph(us[ci], vs[ci])
		sameBipartite(t, "InducedSubgraph(component)", sub, refInducedSubgraph(b, us[ci], vs[ci]))
	}

	subset := func(n int, ascending bool) []int {
		var keep []int
		for i := 0; i < n; i++ {
			if rng.IntN(3) > 0 {
				keep = append(keep, i)
			}
		}
		if !ascending {
			rng.Shuffle(len(keep), func(i, j int) { keep[i], keep[j] = keep[j], keep[i] })
			if len(keep) > 0 && rng.IntN(2) == 0 {
				keep = append(keep, keep[rng.IntN(len(keep))]) // a repeated id
			}
		}
		return keep
	}
	for _, asc := range []bool{true, false} {
		usKeep, vsKeep := subset(b.NU(), asc), subset(b.NV(), asc)
		vsKeep = append(vsKeep, -1, b.NV()) // ids no node has never match
		sub, origU, origV := b.InducedSubgraph(usKeep, vsKeep)
		sameBipartite(t, "InducedSubgraph", sub, refInducedSubgraph(b, usKeep, vsKeep))
		if !slices.Equal(origU, usKeep) || !slices.Equal(origV, vsKeep) {
			t.Fatalf("InducedSubgraph mappings %v %v, want the keep lists %v %v", origU, origV, usKeep, vsKeep)
		}
	}
}

// checkNoSplit fails t unless a normalization in which no node splits is b
// itself: b's own CSR arrays under an identity Origin, with the V side equal
// to the transpose the splitting path builds.
func checkNoSplit(t *testing.T, b *Bipartite, got *VirtualSplit, delta int) {
	t.Helper()
	cu, cv := b.CSRU(), b.CSRV()
	gu, gv := got.B.CSRU(), got.B.CSRV()
	if !sameCSR(gv, transposeRows(cu, b.NV())) {
		t.Fatalf("NormalizeLeftDegrees(δ=%d) without splits: V side differs from the transpose of U", delta)
	}
	same := func(x, y []int32) bool { return len(x) == len(y) && (len(x) == 0 || &x[0] == &y[0]) }
	if !same(gu.Off, cu.Off) || !same(gu.Edges, cu.Edges) || !same(gv.Off, cv.Off) || !same(gv.Edges, cv.Edges) {
		t.Fatalf("NormalizeLeftDegrees(δ=%d) without splits copied b's arrays instead of sharing them", delta)
	}
	for u, o := range got.Origin {
		if o != u {
			t.Fatalf("NormalizeLeftDegrees(δ=%d) without splits: Origin[%d] = %d, want the identity", delta, u, o)
		}
	}
}

// checkBelow fails t unless every Below(s) of the k = 1 walker rows is,
// as a set, the part of want's row s below s, and unless counting each
// listed pair in both endpoints' degrees gives want's arcs and maximum
// degree. Rows are read in index order, as the greedy coloring reads them.
func checkBelow(t *testing.T, b *Bipartite, rows *PowerRows, want *Graph) {
	t.Helper()
	deg := make([]int, b.NV())
	arcs, maxDeg := 0, 0
	for s := 0; s < rows.N(); s++ {
		got := slices.Sorted(slices.Values(rows.Below(s)))
		var lower []int32
		for _, w := range want.Neighbors(s) {
			if int(w) < s {
				lower = append(lower, w)
			}
		}
		if !slices.Equal(got, lower) {
			t.Fatalf("Below(%d) = %v, reference %v", s, got, lower)
		}
		deg[s] += len(got)
		for _, w := range got {
			deg[w]++
		}
		arcs += 2 * len(got)
	}
	for _, d := range deg {
		maxDeg = max(maxDeg, d)
	}
	if arcs != 2*want.M() || maxDeg != want.MaxDeg() {
		t.Fatalf("Below's counted (%d arcs, Δ %d), VPower(1) has (%d, %d)", arcs, maxDeg, 2*want.M(), want.MaxDeg())
	}
}

// transformInstances are the hand-built and generated instances of
// TestTransformsMatchReference.
func transformInstances(t *testing.T) map[string]*Bipartite {
	t.Helper()
	rng := rand.New(rand.NewPCG(19, 1))
	must := func(b *Bipartite, err error) *Bipartite {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	edges := func(nu, nv int, es [][2]int) *Bipartite {
		return must(BipartiteFromEdges(nu, nv, es))
	}
	// One constraint on every variable, the rest on three each.
	var huge [][2]int
	for v := 0; v < 300; v++ {
		huge = append(huge, [2]int{0, v})
	}
	for u := 1; u < 20; u++ {
		for i := 0; i < 3; i++ {
			huge = append(huge, [2]int{u, (u*37 + i*101) % 300})
		}
	}
	// Degrees 1..12: δ = 1 and rows both below and far above 2δ.
	var skewed [][2]int
	for u := 0; u < 12; u++ {
		for i := 0; i <= u; i++ {
			skewed = append(skewed, [2]int{u, (u + 5*i) % 40})
		}
	}
	return map[string]*Bipartite{
		"empty":       NewBipartite(0, 0),
		"empty-U":     NewBipartite(0, 7),
		"empty-V":     NewBipartite(4, 0),
		"no-edges":    NewBipartite(3, 5),
		"isolated-V":  edges(3, 10, [][2]int{{0, 1}, {0, 3}, {1, 3}, {1, 5}, {2, 8}}),
		"huge-row":    edges(20, 300, huge),
		"skewed":      edges(12, 40, skewed),
		"complete":    CompleteBipartite(6, 9),
		"leftregular": must(RandomBipartiteLeftRegular(60, 200, 9, rng)),
		"dense":       must(RandomBipartiteLeftRegular(30, 40, 25, rng)),
		"powerlaw":    must(RandomBipartitePowerLaw(80, 300, 2.5, 60, rng)),
		"biregular":   must(RandomBipartiteBiregular(50, 75, 6, rng)),
		"star":        must(SubdividedStar(8)),
		"tree":        must(HighGirthTree(4, 3)),
		// Edges listed against row order, so V row 2 is filled as [1 0] and
		// must come out sorted. (The name predates the constructors: it was
		// the instance whose edges were still buffered when read.)
		"pending-only": edges(2, 3, [][2]int{{1, 2}, {0, 2}}),
	}
}

func TestTransformsMatchReference(t *testing.T) {
	for name, b := range transformInstances(t) {
		t.Run(name, func(t *testing.T) {
			checkTransformsMatch(t, b, rand.New(rand.NewPCG(23, uint64(len(name)))))
		})
	}
}

// TestLeftRegularMatchesReference pins the generator: same instance and
// the same number of draws from rng as the reference construction.
func TestLeftRegularMatchesReference(t *testing.T) {
	for _, sh := range [][3]int{{0, 0, 0}, {0, 5, 3}, {4, 0, 0}, {5, 5, 0}, {5, 5, 5}, {1, 300, 300}, {40, 60, 10}, {300, 1000, 24}} {
		nu, nv, d := sh[0], sh[1], sh[2]
		got, err := RandomBipartiteLeftRegular(nu, nv, d, rand.New(rand.NewPCG(7, uint64(nu))))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(7, uint64(nu)))
		sameBipartite(t, "RandomBipartiteLeftRegular", got, refLeftRegular(nu, nv, d, rng))
		after := rand.New(rand.NewPCG(7, uint64(nu)))
		_, _ = RandomBipartiteLeftRegular(nu, nv, d, after)
		if after.Uint64() != rng.Uint64() {
			t.Fatalf("%d×%d d=%d: the generator drew a different number of values than the reference", nu, nv, d)
		}
	}
}

// TestBiregularMatchesReference pins the biregular generator's repair
// loop: the same instance and the same draws as the rescanning reference,
// on shapes dense enough that most blocks need repairs.
func TestBiregularMatchesReference(t *testing.T) {
	for _, sh := range [][3]int{{1, 1, 1}, {3, 9, 3}, {20, 40, 20}, {16, 20, 19}, {32, 128, 64}, {50, 75, 6}} {
		nu, nv, d := sh[0], sh[1], sh[2]
		for seed := uint64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewPCG(seed, 3))
			got, err := RandomBipartiteBiregular(nu, nv, d, rand.New(rand.NewPCG(seed, 3)))
			want := refBiregular(nu, nv, d, rng)
			if (err != nil) != (want == nil) {
				t.Fatalf("%d×%d d=%d seed %d: error %v, reference converged %v", nu, nv, d, seed, err, want != nil)
			}
			if err == nil {
				sameBipartite(t, "RandomBipartiteBiregular", got, want)
			}
		}
	}
}

// FuzzBipartiteTransforms runs the differential on fuzzed edge lists (each
// byte pair is one edge, reduced modulo the side sizes; repeats are merged
// by Normalize) and the generator on fuzzed shapes and seeds.
func FuzzBipartiteTransforms(f *testing.F) {
	f.Add(uint8(3), uint8(4), []byte{0, 0, 0, 1, 1, 1, 2, 3}, uint64(1), uint8(2))
	f.Add(uint8(0), uint8(5), []byte{}, uint64(2), uint8(0))
	f.Add(uint8(4), uint8(0), []byte{1, 2}, uint64(3), uint8(0))
	f.Add(uint8(1), uint8(30), []byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8}, uint64(4), uint8(30))
	f.Add(uint8(6), uint8(6), []byte{0, 1, 1, 0, 2, 3, 3, 2, 4, 5, 5, 4, 0, 5, 5, 0}, uint64(5), uint8(3))
	// Degrees 2 and 3: no node splits at any valid δ.
	f.Add(uint8(3), uint8(5), []byte{0, 0, 0, 1, 1, 1, 1, 2, 1, 4, 2, 3, 2, 4}, uint64(6), uint8(2))
	// Degrees 1 and 7: the degree-7 node splits at δ = 1.
	f.Add(uint8(2), uint8(8), []byte{0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 1, 7}, uint64(7), uint8(1))
	f.Fuzz(func(t *testing.T, nu, nv uint8, pairs []byte, seed uint64, d uint8) {
		n, m := int(nu%33), int(nv%65)
		if len(pairs) > 4096 {
			return
		}
		var list [][2]int
		if n > 0 && m > 0 {
			for i := 0; i+1 < len(pairs); i += 2 {
				list = append(list, [2]int{int(pairs[i]) % n, int(pairs[i+1]) % m})
			}
		}
		b := refFromEdges(n, m, list)
		checkTransformsMatch(t, b, rand.New(rand.NewPCG(seed, 0)))

		dd := int(d) % (m + 1)
		got, err := RandomBipartiteLeftRegular(n, m, dd, rand.New(rand.NewPCG(seed, 1)))
		if err != nil {
			t.Fatal(err)
		}
		sameBipartite(t, "RandomBipartiteLeftRegular", got, refLeftRegular(n, m, dd, rand.New(rand.NewPCG(seed, 1))))
	})
}

// TestPowerRowsMatchVPower pins the implicit walk against the reference
// construction: for k = 0..3 every PowerRows row, sorted, is the
// reference's VPower(k) row, and VPowerBound bounds its arcs and maximum
// degree. Rows are read out of order and twice, which must not change
// them, and again right after the stamp counter wraps to the stamp the
// walker's first row left behind. For k = 1 the lower rows (Below) are
// also read after a wrap; other walkers must refuse Below.
func TestPowerRowsMatchVPower(t *testing.T) {
	for name, b := range transformInstances(t) {
		t.Run(name, func(t *testing.T) {
			for k := 0; k <= 3; k++ {
				want := refVPower(b, k)
				rows := b.PowerRows(k)
				if rows.N() != want.N() {
					t.Fatalf("k=%d: %d rows, reference %d", k, rows.N(), want.N())
				}
				check := func(s int) {
					got := slices.Sorted(slices.Values(rows.Neighbors(s)))
					if !slices.Equal(got, want.Neighbors(s)) {
						t.Fatalf("k=%d: row %d = %v, reference %v", k, s, got, want.Neighbors(s))
					}
				}
				for s := rows.N() - 1; s >= 0; s-- {
					check(s)
					check(s)
				}
				for s := range min(rows.N(), 4) {
					rows = b.PowerRows(k)
					rows.Neighbors(s)
					rows.epoch = math.MaxInt32
					check(s)
				}
				if k != 1 && rows.N() > 0 {
					func() {
						defer func() {
							if recover() == nil {
								t.Fatalf("k=%d: Below did not panic", k)
							}
						}()
						rows.Below(0)
					}()
				}
				if k == 1 && rows.N() > 0 {
					// Below after a wrap, on a walker whose full rows
					// left stamps behind.
					rows.epoch = math.MaxInt32
					checkBelow(t, b, rows, want)
				}
				arcs, maxDeg := b.VPowerBound(k)
				if arcs < 2*want.M() || maxDeg < want.MaxDeg() {
					t.Fatalf("k=%d: VPowerBound = (%d arcs, degree %d) below the exact (%d, %d)", k, arcs, maxDeg, 2*want.M(), want.MaxDeg())
				}
			}
		})
	}
}
