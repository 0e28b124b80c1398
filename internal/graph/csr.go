package graph

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// CSR is a compressed-sparse-row adjacency structure: the canonical storage
// behind Graph, Bipartite and Multigraph. Row v occupies
// Edges[Off[v]:Off[v+1]]; Off has N()+1 entries. Two flat arrays per graph
// (8 bytes per directed arc plus 4 bytes per node) replace the
// pointer-per-node slices-of-slices layout, which at 1M+ nodes costs an
// extra 24-byte header plus an independently-allocated backing array per
// node and defeats hardware prefetching during neighbor scans.
//
// Rows of Graph and Bipartite are sorted ascending and duplicate-free;
// Multigraph incidence rows are in edge-id order. The zero value is an
// empty graph on zero nodes.
type CSR struct {
	Off   []int32 // len N()+1; Off[0] = 0, monotonically nondecreasing
	Edges []int32 // len Off[N()]; row v is Edges[Off[v]:Off[v+1]]
}

// N returns the number of rows (nodes).
func (c CSR) N() int {
	if len(c.Off) == 0 {
		return 0
	}
	return len(c.Off) - 1
}

// Arcs returns the total number of directed arcs, i.e. len(Edges). For an
// undirected Graph this is twice the edge count.
func (c CSR) Arcs() int { return len(c.Edges) }

// Row returns row v as a subslice of the flat edge array (zero-copy; do not
// modify).
func (c CSR) Row(v int) []int32 { return c.Edges[c.Off[v]:c.Off[v+1]] }

// Deg returns the length of row v.
func (c CSR) Deg(v int) int { return int(c.Off[v+1] - c.Off[v]) }

// clone returns a deep copy of c.
func (c CSR) clone() CSR {
	return CSR{
		Off:   append([]int32(nil), c.Off...),
		Edges: append([]int32(nil), c.Edges...),
	}
}

// emptyCSR returns a CSR with n empty rows.
func emptyCSR(n int) CSR { return CSR{Off: make([]int32, n+1)} }

// CSRBuilder accumulates directed arcs in a single flat buffer and builds a
// CSR in two O(m) passes (degree count, then fill). No per-node intermediate
// slices are allocated, so million-node instances build with a constant
// number of allocations; TestCSRBuilderAllocs pins this down.
//
// Arc and Edge validate endpoints against [0, n) and record the first
// violation (one predictable branch per endpoint — negligible next to the
// append): fillCSR indexes the offset array by endpoint, so an unchecked
// out-of-range arc would otherwise surface as a raw index-out-of-range panic
// deep inside the fill passes. Trusted in-range callers use Build, which
// panics with the recorded descriptive error on misuse; untrusted input
// paths (the file importers) use BuildE, which returns it.
type CSRBuilder struct {
	n    int
	arcs []int32 // flat (src, dst) pairs
	err  error   // first out-of-range endpoint or arc-count overflow, if any
}

// maxCSRArcs caps the number of directed arcs a builder accepts. The CSR
// layout indexes the edge array with int32 offsets, so a build past
// math.MaxInt32 arcs would silently wrap during the fill passes and come out
// structurally corrupt. A var rather than a const so the overflow test can
// lower it instead of materializing a 2^31-arc buffer.
var maxCSRArcs = math.MaxInt32

// NewCSRBuilder returns a builder for a CSR with n rows. edgeHint is the
// expected number of Edge calls (0 is fine): it sizes the arc buffer so an
// accurately hinted build never regrows. Arc-only callers add one arc per
// Edge's two, so a hint of half the Arc count is exact for them.
func NewCSRBuilder(n, edgeHint int) *CSRBuilder {
	return &CSRBuilder{n: n, arcs: make([]int32, 0, 4*edgeHint)}
}

// checkRoom records a descriptive error once the builder is asked to hold
// more directed arcs than the int32 offset layout can index.
func (b *CSRBuilder) checkRoom(add int) {
	if b.err == nil && len(b.arcs)/2+add > maxCSRArcs {
		b.err = fmt.Errorf("graph: %d directed arcs exceed the int32 CSR layout limit of %d",
			len(b.arcs)/2+add, maxCSRArcs)
	}
}

// check records the first out-of-range endpoint; later arcs keep
// accumulating so the builder stays usable for error reporting.
func (b *CSRBuilder) check(u, v int32) {
	if b.err == nil && (int(u) < 0 || int(u) >= b.n || int(v) < 0 || int(v) >= b.n) {
		b.err = fmt.Errorf("graph: arc %d endpoint out of range: (%d, %d) not in [0, %d)",
			len(b.arcs)/2, u, v, b.n)
	}
}

// Arc appends the directed arc u → v. Endpoints must be in [0, n); an
// out-of-range endpoint is recorded and surfaced by Err/Build/BuildE.
func (b *CSRBuilder) Arc(u, v int32) {
	b.check(u, v)
	b.checkRoom(1)
	b.arcs = append(b.arcs, u, v)
}

// arcToCol appends a row → column entry where the column is not a node
// index (Multigraph incidence rows store edge ids as columns). Only the row
// is validated — it is what indexes the offset array during the fill.
func (b *CSRBuilder) arcToCol(row, col int32) {
	if b.err == nil && (int(row) < 0 || int(row) >= b.n) {
		b.err = fmt.Errorf("graph: arc %d row %d out of range [0, %d)", len(b.arcs)/2, row, b.n)
	}
	b.checkRoom(1)
	b.arcs = append(b.arcs, row, col)
}

// Edge appends both directed arcs of the undirected edge {u, v}.
func (b *CSRBuilder) Edge(u, v int32) {
	b.check(u, v)
	b.checkRoom(2)
	b.arcs = append(b.arcs, u, v, v, u)
}

// Err returns the first error recorded by Arc or Edge — an out-of-range
// endpoint or an arc count past the int32 layout limit — or nil if every
// added arc was acceptable.
func (b *CSRBuilder) Err() error { return b.err }

// Build assembles the CSR with every row sorted ascending and deduplicated
// (the invariant Graph and Bipartite maintain). The builder can be reused
// afterwards; already-added arcs remain. Build panics with the descriptive
// endpoint error if any added arc was out of range — in-package callers
// construct arcs in range; callers fed from untrusted input use BuildE.
func (b *CSRBuilder) Build() CSR {
	if b.err != nil {
		panic(b.err)
	}
	c := fillCSR(b.n, nil, b.arcs, false)
	sortDedupRows(&c)
	return c
}

// BuildE is Build for untrusted input: it returns the recorded endpoint
// error instead of panicking, so file importers surface a descriptive
// error rather than crashing inside the fill passes.
func (b *CSRBuilder) BuildE() (CSR, error) {
	if b.err != nil {
		return CSR{}, b.err
	}
	c := fillCSR(b.n, nil, b.arcs, false)
	sortDedupRows(&c)
	return c, nil
}

// BuildRaw assembles the CSR preserving arc insertion order within each row
// and keeping duplicates (the invariant Multigraph incidence lists need:
// edge ids per node stay in ascending edge-id order). Like Build, it panics
// with the recorded endpoint error on out-of-range arcs.
func (b *CSRBuilder) BuildRaw() CSR {
	if b.err != nil {
		panic(b.err)
	}
	return fillCSR(b.n, nil, b.arcs, false)
}

// fillCSR runs degree-count-then-fill over an optional existing CSR plus a
// flat (src, dst) arc buffer. Rows come out with base's arcs first (in row
// order) followed by the buffered arcs in insertion order. flip swaps the
// roles of src and dst in the buffer (used for the reverse side of a
// bipartite graph, which shares one pending buffer with the forward side).
func fillCSR(n int, base *CSR, arcs []int32, flip bool) CSR {
	s, d := 0, 1
	if flip {
		s, d = 1, 0
	}
	off := make([]int32, n+1)
	if base != nil {
		for v := 0; v < base.N(); v++ {
			off[v+1] = int32(base.Deg(v))
		}
	}
	for i := 0; i < len(arcs); i += 2 {
		off[arcs[i+s]+1]++
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	edges := make([]int32, off[n])
	cursor := make([]int32, n)
	copy(cursor, off[:n])
	if base != nil {
		for v := 0; v < base.N(); v++ {
			row := base.Row(v)
			copy(edges[cursor[v]:], row)
			cursor[v] += int32(len(row))
		}
	}
	for i := 0; i < len(arcs); i += 2 {
		u := arcs[i+s]
		edges[cursor[u]] = arcs[i+d]
		cursor[u]++
	}
	return CSR{Off: off, Edges: edges}
}

// sortDedupRows sorts every row ascending and removes duplicates in place,
// compacting the edge array and offsets.
func sortDedupRows(c *CSR) {
	n := c.N()
	var w int32 // write cursor into the compacted edge array
	for v := 0; v < n; v++ {
		lo, hi := c.Off[v], c.Off[v+1]
		row := c.Edges[lo:hi]
		slices.Sort(row)
		c.Off[v] = w
		for i, x := range row {
			if i > 0 && x == row[i-1] {
				continue
			}
			c.Edges[w] = x
			w++
		}
	}
	c.Off[n] = w
	c.Edges = c.Edges[:w]
}

// transposeRows returns the reverse of fwd over nv columns: row v of the
// result lists, ascending, every row r of fwd that contains v. One counting
// pass and one fill in ascending row order, so the output rows come out
// sorted with no sort, and duplicate-free whenever fwd's rows are. This is
// the V side of every Bipartite transform whose U side is built directly.
func transposeRows(fwd CSR, nv int) CSR {
	off := make([]int32, nv+1)
	for _, v := range fwd.Edges {
		off[v+1]++
	}
	// Exclusive prefix sum shifted by one: off[v+1] is the start of row v,
	// then the fill's cursor, and finally the end of row v.
	var sum int32
	for v := 1; v <= nv; v++ {
		sum, off[v] = sum+off[v], sum
	}
	edges := make([]int32, len(fwd.Edges))
	for r := 0; r < fwd.N(); r++ {
		for _, v := range fwd.Row(r) {
			edges[off[v+1]] = int32(r)
			off[v+1]++
		}
	}
	return CSR{Off: off, Edges: edges}
}

// sortDistinct sorts row ascending; its values must be distinct and index
// into the bitmap scratch mark (one bit per value, all zero on entry and
// again on return). A dense row is sorted by setting one bit per value and
// reading the bits back in order, O(len(row) + span/64) against the
// O(len(row)·log len(row)) of a comparison sort, which sparse rows keep.
func sortDistinct(row []int32, mark []uint64) {
	if len(row) < 2 {
		return
	}
	lo, hi := row[0], row[0]
	for _, x := range row[1:] {
		lo, hi = min(lo, x), max(hi, x)
	}
	wlo, whi := int(lo>>6), int(hi>>6)
	if whi-wlo >= 4*len(row) {
		slices.Sort(row)
		return
	}
	for _, x := range row {
		mark[x>>6] |= 1 << (x & 63)
	}
	i := 0
	for w := wlo; w <= whi; w++ {
		for word := mark[w]; word != 0; word &= word - 1 {
			row[i] = int32(w<<6 + bits.TrailingZeros64(word))
			i++
		}
		mark[w] = 0
	}
}

// checkArcs panics with the CSR builder's descriptive error when a directly
// built CSR would hold more directed arcs than int32 offsets can index; the
// in-package constructions that bypass CSRBuilder call it before they size
// their arrays.
func checkArcs(arcs int) {
	if arcs > maxCSRArcs {
		panic(fmt.Errorf("graph: %d directed arcs exceed the int32 CSR layout limit of %d", arcs, maxCSRArcs))
	}
}

// mergeCSR rebuilds a sorted, deduplicated CSR over n rows from an existing
// CSR plus a flat buffer of new arcs: the lazy-normalization step behind
// Graph.AddEdge/Normalize. base may have fewer than n rows (node growth).
func mergeCSR(n int, base CSR, arcs []int32) CSR {
	c := fillCSR(n, &base, arcs, false)
	sortDedupRows(&c)
	return c
}

// mergeCSRFlipped is mergeCSR with the buffered arcs read as (dst, src):
// the reverse-side merge of Bipartite, which stores its pending edges once
// as (u, v) pairs and materializes both row sets from them.
func mergeCSRFlipped(n int, base CSR, arcs []int32) CSR {
	c := fillCSR(n, &base, arcs, true)
	sortDedupRows(&c)
	return c
}
