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
// TestWorkerPoolWordClearsTerminatedRows: on a clean finish both packed
// planes must come back all-zero — presence and value sub-planes alike —
// because rows are cleared on consumption and terminated-node rows are
// cleared (and popcount-uncounted) at compaction. Stats must match the
// sequential engine exactly.
func TestWorkerPoolBitClearsTerminatedRows(t *testing.T) {
	g := graph.RandomGraph(200, 0.06, prob.NewSource(21).Rand())
	topo := NewTopology(g)
	const long = 60
	n := topo.N()
	nodes := make([]BitNode, n)
	for v := range nodes {
		nodes[v] = &bitNoisyHalt{stop: wordNoisyStop(v, long)}
	}
	e := WorkerPoolEngine{Workers: 3}
	stats, inbox, next, err := e.runBit(topo, nodes, 2, defaultMaxRounds, e.workerCount(n), nil, nil, Tuning{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != long {
		t.Errorf("rounds=%d, want %d", stats.Rounds, long)
	}
	for _, pl := range []struct {
		name string
		p    bitPlane
	}{{"inbox", inbox}, {"next", next}} {
		for i, w := range pl.p.lanes {
			if w != 0 {
				t.Fatalf("stale lane bits retained in %s word %d: %#x", pl.name, i, w)
			}
		}
	}
	idx := 0
	factory := func(View) Node {
		node := BitProgram(&bitNoisyHalt{stop: wordNoisyStop(idx, long)})
		idx++
		return node
	}
	seqStats, err := SequentialEngine{}.Run(topo, factory, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats != seqStats {
		t.Errorf("stats differ: pool=%+v seq=%+v", stats, seqStats)
	}
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
		if c := countBitRange(ws, 0, 256); int(c) != 256-(tc.hi-tc.lo) {
			t.Fatalf("countBitRange after clear(%d, %d) = %d", tc.lo, tc.hi, c)
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
		pl := newBitPlane(200, width)
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

// TestCarveShardsArcBalance pins the arc-balanced sharding invariants: the
// shards tile the active set, there are at most nw of them, and on a
// skewed-degree graph no shard exceeds roughly twice the ideal arc weight
// unless a single hub forces it.
func TestCarveShardsArcBalance(t *testing.T) {
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
	for _, nw := range []int{1, 2, 3, 8, 64} {
		bounds := topo.carveShards(active, n, weight, nw, nil)
		if bounds[0] != 0 || bounds[len(bounds)-1] != n {
			t.Fatalf("nw=%d: bounds %v do not tile [0, %d)", nw, bounds, n)
		}
		if len(bounds)-1 > nw {
			t.Fatalf("nw=%d: %d shards", nw, len(bounds)-1)
		}
		maxNode := int64(1 + topo.MaxDeg())
		target := (weight + int64(nw) - 1) / int64(nw)
		for i := 0; i+1 < len(bounds); i++ {
			if bounds[i] >= bounds[i+1] {
				t.Fatalf("nw=%d: empty shard %v", nw, bounds)
			}
			w := int64(0)
			for _, v := range active[bounds[i]:bounds[i+1]] {
				w += 1 + int64(topo.Deg(int(v)))
			}
			// A shard stops growing once it crosses the target, so it can
			// overshoot by at most one node's weight.
			if i+1 < len(bounds)-1 && w > target+maxNode {
				t.Errorf("nw=%d: shard %d weighs %d, target %d (+hub %d)", nw, i, w, target, maxNode)
			}
		}
	}
	// Degenerate cases: fewer nodes than workers, single node.
	b := topo.carveShards(active, 3, 7, 8, nil)
	if len(b)-1 > 3 {
		t.Errorf("3 active nodes carved into %d shards", len(b)-1)
	}
	bw := topo.carveByWeight(active, 5, 1, nil)
	if bw[0] != 0 || bw[len(bw)-1] != 5 {
		t.Errorf("carveByWeight bounds %v do not tile [0, 5)", bw)
	}
}
