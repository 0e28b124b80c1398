package local

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/prob"
)

// bitNoisyHalt is wordNoisyHalt on the bit plane: it sends a trit on every port
// each round (including its final one) and terminates at a fixed per-node
// round, so long-lived neighbors keep delivering into rows of long-dead
// nodes — the buffer-hygiene stress shape.
type bitNoisyHalt struct{ stop int }

func (h *bitNoisyHalt) RoundB(r int, recv, send BitRow) bool {
	send.Broadcast(uint64(r) % 4)
	return r >= h.stop
}

func (*bitNoisyHalt) Bit2() {}

// TestWorkerPoolBitClearsTerminatedRows is the bit-plane sibling of
// TestWorkerPoolWordClearsTerminatedRows: both packed planes must come back
// all-zero — presence and value sub-planes alike — because rows are cleared
// on consumption and terminated-node rows are cleared (and
// popcount-uncounted) at compaction; see checkNoisyPlanes.
func TestWorkerPoolBitClearsTerminatedRows(t *testing.T) {
	checkNoisyPlanes(t, true)
}

// TestBitRangeHelpers pins the masked word arithmetic of the packed-plane
// primitives on the awkward boundaries: ranges inside one word, spanning
// word boundaries, and ending exactly on them.
func TestBitRangeHelpers(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct{ lo, hi int }{
		{0, 0}, {0, 1}, {3, 9}, {0, 64}, {63, 65}, {64, 128}, {5, 200}, {127, 128},
	} {
		ws := make([]uint64, 4)
		for i := range ws {
			ws[i] = ^uint64(0)
		}
		clearBitRange(ws, tc.lo, tc.hi, false)
		for b := 0; b < 256; b++ {
			got := ws[b>>6]>>(b&63)&1 == 1
			want := b < tc.lo || b >= tc.hi
			if got != want {
				t.Fatalf("clearBitRange(%d, %d): bit %d is %v", tc.lo, tc.hi, b, got)
			}
		}
		if c := countPatternRange(ws, 0, 256, ^uint64(0)); int(c) != 256-(tc.hi-tc.lo) {
			t.Fatalf("popcount after clear(%d, %d) = %d", tc.lo, tc.hi, c)
		}
		// Restore per bit for the next case (reference semantics).
		for b := tc.lo; b < tc.hi; b++ {
			ws[b>>6] |= 1 << (b & 63)
		}
		for b := 0; b < 256; b++ {
			if ws[b>>6]>>(b&63)&1 != 1 {
				t.Fatalf("restore after clear(%d, %d): bit %d still cleared", tc.lo, tc.hi, b)
			}
		}
	}
}

// TestBitRowSetGetBroadcast pins the row accessors on a 2-bit scratch row
// whose ports straddle word boundaries.
func TestBitRowSetGetBroadcast(t *testing.T) {
	t.Parallel()
	const deg = 70 // value lanes cover 140 bits — three words
	row := newBitScratch(deg, 2)
	for p := 0; p < deg; p++ {
		if row.Has(p) {
			t.Fatalf("fresh row has port %d set", p)
		}
	}
	row.Set(33, 3)
	row.SetInt(64, -1)
	if !row.Has(33) || row.Get(33) != 3 {
		t.Fatalf("port 33 = (%v, %d)", row.Has(33), row.Get(33))
	}
	if !row.Has(64) || row.Int(64) != -1 {
		t.Fatalf("port 64 = (%v, %d)", row.Has(64), row.Int(64))
	}
	if row.Has(32) || row.Has(34) || row.Has(63) || row.Has(65) {
		t.Fatal("Set leaked into neighboring ports")
	}
	row.Set(33, 1) // overwrite must replace, not OR
	if row.Get(33) != 1 {
		t.Fatalf("overwritten port 33 = %d, want 1", row.Get(33))
	}
	row.clear(false)
	row.Broadcast(2)
	for p := 0; p < deg; p++ {
		if !row.Has(p) || row.Get(p) != 2 {
			t.Fatalf("after Broadcast(2), port %d = (%v, %d)", p, row.Has(p), row.Get(p))
		}
	}
	row.clear(false)
	for i, w := range row.lanes {
		if w != 0 {
			t.Fatalf("lane word %d not cleared: %#x", i, w)
		}
	}
}

// TestBitRowAggregates pins the word-parallel aggregates against the
// per-port accessors, on rows that start mid-word and straddle word
// boundaries, for both lane widths.
func TestBitRowAggregates(t *testing.T) {
	t.Parallel()
	rng := prob.NewSource(9).Rand()
	for _, width := range []int{1, 2} {
		pl := bitPlane{lanes: make([]uint64, planeWords(200, width)), width: uint32(width)}
		for _, bounds := range [][2]int32{{0, 200}, {3, 9}, {17, 130}, {64, 128}, {199, 200}, {50, 50}} {
			row := pl.row(bounds[0], bounds[1])
			for p := 0; p < row.Len(); p++ {
				if rng.Uint64()&1 == 1 {
					row.Set(p, rng.Uint64())
				}
			}
			for v := uint64(0); v < 1<<width; v++ {
				want := 0
				for p := 0; p < row.Len(); p++ {
					if row.Has(p) && row.Get(p) == v {
						want++
					}
				}
				if got := row.CountValue(v); got != want {
					t.Fatalf("width=%d row=%v: CountValue(%d) = %d, want %d", width, bounds, v, got, want)
				}
				if row.AnyValue(v) != (want > 0) {
					t.Fatalf("width=%d row=%v: AnyValue(%d) disagrees with count %d", width, bounds, v, want)
				}
			}
			wantPresent := 0
			for p := 0; p < row.Len(); p++ {
				if lv, ok := row.Lane(p); ok {
					wantPresent++
					if lv != row.Get(p) {
						t.Fatalf("Lane and Get disagree at port %d", p)
					}
				}
			}
			if got := row.CountPresent(); got != wantPresent {
				t.Fatalf("width=%d row=%v: CountPresent = %d, want %d", width, bounds, got, wantPresent)
			}
			row.clear(false)
		}
	}
}

// TestCarveByWeightArcBalance pins the arc-balanced unit carve on a
// skewed-degree graph: the units tile the active set, every unit but the
// last weighs at least the target, and none overshoots it by a node's
// weight or more — a unit stops growing once it crosses the target.
func TestCarveByWeightArcBalance(t *testing.T) {
	t.Parallel()
	g := graph.RandomPowerLawGraph(4000, 2.1, 600, prob.NewSource(7).Rand())
	topo := NewTopology(g)
	n := topo.N()
	active := make([]int32, n)
	weight := int64(0)
	for v := range active {
		active[v] = int32(v)
		weight += 1 + int64(topo.Deg(v))
	}
	maxNode := int64(1 + topo.MaxDeg())
	for _, target := range []int64{1, 64, 1024, weight / 64, weight / 3, weight, 2 * weight} {
		bounds := topo.carveByWeight(active, n, target, nil)
		if bounds[0] != 0 || int(bounds[len(bounds)-1]) != n {
			t.Fatalf("target=%d: bounds do not tile [0, %d)", target, n)
		}
		for i := 0; i+1 < len(bounds); i++ {
			if bounds[i] >= bounds[i+1] {
				t.Fatalf("target=%d: empty unit %d", target, i)
			}
			w := int64(0)
			for _, v := range active[bounds[i]:bounds[i+1]] {
				w += 1 + int64(topo.Deg(int(v)))
			}
			if i+2 < len(bounds) && w < target {
				t.Errorf("target=%d: unit %d weighs %d, under the target", target, i, w)
			}
			if w >= target+maxNode {
				t.Errorf("target=%d: unit %d weighs %d, past the target by a node (+%d)", target, i, w, maxNode)
			}
		}
	}
	// Degenerate cases: a unit per node, and an empty active set.
	if b := topo.carveByWeight(active, 5, 1, nil); len(b) != 6 || b[5] != 5 {
		t.Errorf("carveByWeight(5 nodes, target 1) = %v, want one unit per node", b)
	}
	if b := topo.carveByWeight(active, 0, 1, nil); len(b) != 2 || b[1] != 0 {
		t.Errorf("carveByWeight(0 nodes) = %v, want [0 0]", b)
	}
}
