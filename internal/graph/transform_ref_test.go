package graph

// Reference differential for the transforms on the solver path. The
// rewritten functions build their CSR arrays directly; the references below
// are the generic construction they replaced — buffer every edge with
// addEdgeUnchecked (or CSRBuilder.Edge), then Normalize (fill, sort,
// dedup) — kept here as the oracle, the way fused_test.go keeps the unfused
// delivery path. Every rewritten function must match its reference array
// for array, on hand-built degenerate instances, on generated ones and on
// fuzzed edge lists.

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// refLeftRegular is RandomBipartiteLeftRegular through the pending buffer.
func refLeftRegular(nu, nv, d int, rng *rand.Rand) *Bipartite {
	b := NewBipartite(nu, nv)
	perm := make([]int32, nv)
	for i := range perm {
		perm[i] = int32(i)
	}
	for u := 0; u < nu; u++ {
		for i := 0; i < d; i++ {
			j := i + rng.IntN(nv-i)
			perm[i], perm[j] = perm[j], perm[i]
			b.addEdgeUnchecked(int32(u), perm[i])
		}
	}
	b.Normalize()
	return b
}

// refBiregular is RandomBipartiteBiregular with a map per duplicate scan,
// a rescan from the first block after every swap attempt and the pending
// buffer.
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
			b := NewBipartite(nu, nv)
			for u := 0; u < nu; u++ {
				for i := 0; i < dU; i++ {
					b.addEdgeUnchecked(int32(u), slots[u*dU+i])
				}
			}
			b.Normalize()
			return b
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

// refNormalizeLeftDegrees is NormalizeLeftDegrees through the pending
// buffer (argument checks omitted: callers compare error presence).
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
	nb := NewBipartite(nuVirtual, b.NV())
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
				nb.addEdgeUnchecked(int32(uid), v)
			}
			origin = append(origin, u)
			uid++
			at += size
		}
	}
	nb.Normalize()
	return &VirtualSplit{B: nb, Origin: origin}
}

// refTruncateLeftDegrees is TruncateLeftDegrees through the pending buffer.
func refTruncateLeftDegrees(b *Bipartite, keep int) *Bipartite {
	nb := NewBipartite(b.NU(), b.NV())
	for u := 0; u < b.NU(); u++ {
		take := b.NbrU(u)
		if len(take) > keep {
			take = take[:keep]
		}
		for _, v := range take {
			nb.addEdgeUnchecked(int32(u), v)
		}
	}
	nb.Normalize()
	return nb
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

// refInducedSubgraph is InducedSubgraph with map relabels and the pending
// buffer.
func refInducedSubgraph(b *Bipartite, usKeep, vsKeep []int) *Bipartite {
	vIdx := make(map[int]int, len(vsKeep))
	for i, v := range vsKeep {
		vIdx[v] = i
	}
	sub := NewBipartite(len(usKeep), len(vsKeep))
	for i, u := range usKeep {
		for _, v := range b.NbrU(u) {
			if j, ok := vIdx[int(v)]; ok {
				sub.addEdgeUnchecked(int32(i), int32(j))
			}
		}
	}
	sub.Normalize()
	return sub
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
		"pending-only": func() *Bipartite {
			b := NewBipartite(2, 3) // edges still buffered: transforms normalize first
			b.addEdgeUnchecked(1, 2)
			b.addEdgeUnchecked(0, 2)
			return b
		}(),
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
// the same number of draws from rng as the pending-buffer construction.
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
	f.Fuzz(func(t *testing.T, nu, nv uint8, pairs []byte, seed uint64, d uint8) {
		n, m := int(nu%33), int(nv%65)
		if len(pairs) > 4096 {
			return
		}
		b := NewBipartite(n, m)
		if n > 0 && m > 0 {
			for i := 0; i+1 < len(pairs); i += 2 {
				b.addEdgeUnchecked(int32(int(pairs[i])%n), int32(int(pairs[i+1])%m))
			}
		}
		b.Normalize()
		checkTransformsMatch(t, b, rand.New(rand.NewPCG(seed, 0)))

		dd := int(d) % (m + 1)
		got, err := RandomBipartiteLeftRegular(n, m, dd, rand.New(rand.NewPCG(seed, 1)))
		if err != nil {
			t.Fatal(err)
		}
		sameBipartite(t, "RandomBipartiteLeftRegular", got, refLeftRegular(n, m, dd, rand.New(rand.NewPCG(seed, 1))))
	})
}
