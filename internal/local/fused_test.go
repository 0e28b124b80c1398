// Fused-broadcast tests: every engine takes a BitBroadcaster's fused CastB
// path (push and pull), and that path must be observationally identical to
// the plain scratch-row schedule RoundB runs. The unfused reference lives
// here, as test code: unfused hides a program's CastB.
package local_test

import (
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/prob"
)

// castTail is the fused-path stress program: a BitBroadcaster with the
// shattering-shaped round structure — most nodes terminate within three
// rounds, a sparse residual keeps broadcasting for a long tail — so runs
// exercise the dense pull rounds, the switch back to push, and retirement
// under attrition, all at once. A wide castTail casts trits on a 2-bit
// plane. roundBs, when set, counts the calls that came through RoundB
// rather than CastB.
type castTail struct {
	v       local.View
	acc     uint64
	stop    int
	out     []uint64
	idx     int
	wide    bool
	roundBs *atomic.Int64
}

func (n *castTail) mask() uint64 {
	if n.wide {
		return 3
	}
	return 1
}

func (n *castTail) CastB(r int, recv local.BitRow) (uint64, bool, bool) {
	n.acc = n.acc*1099511628211 + uint64(recv.CountPresent())<<8 ^ uint64(recv.CountValue(1))
	if n.wide {
		n.acc ^= uint64(recv.CountValue(2)) << 16
	}
	if r >= n.stop {
		n.out[n.idx] = n.acc
		return uint64(r) & n.mask(), true, true // parting broadcast on the way out
	}
	return (n.acc ^ uint64(r)) & n.mask(), true, false
}

func (n *castTail) RoundB(r int, recv, send local.BitRow) bool {
	if n.roundBs != nil {
		n.roundBs.Add(1)
	}
	v, cast, done := n.CastB(r, recv)
	if cast {
		send.Broadcast(v)
	}
	return done
}

// castTail2 is a wide castTail, marked for the 2-bit plane.
type castTail2 struct{ *castTail }

func (castTail2) Bit2() {}

// castTailStop gives node idx a stop round of 2+idx%3, with every 37th
// node surviving to the full tail.
func castTailStop(idx, tail int) int {
	if idx%37 == 0 {
		return tail
	}
	return 2 + idx%3
}

// castTailFactory builds castTail programs stopping at castTailStop, at
// 2-bit lanes when wide. It counts RoundB calls into roundBs when that is
// non-nil.
func castTailFactory(tail int, out []uint64, wide bool, roundBs *atomic.Int64) local.Factory {
	idx := 0
	return func(v local.View) local.Node {
		n := &castTail{v: v, stop: castTailStop(idx, tail), out: out, idx: idx, wide: wide, roundBs: roundBs}
		idx++
		if wide {
			return local.BitProgram(castTail2{n})
		}
		return local.BitProgram(n)
	}
}

// unfusedBit exposes only RoundB of the bit program it wraps, hiding any
// CastB, so engines run it through the send scratch row.
type unfusedBit struct{ local.BitNode }

// unfusedBit2 is unfusedBit for a Bit2Node: it keeps the 2-bit marker.
type unfusedBit2 struct{ unfusedBit }

func (unfusedBit2) Bit2() {}

// unfused wraps f so every bit program it builds hides its CastB: the
// unfused reference schedule the fused paths are checked against. Programs
// that are not bit programs pass through unchanged.
func unfused(f local.Factory) local.Factory {
	return func(v local.View) local.Node {
		n := f(v)
		b, ok := n.(local.BitNode)
		if !ok {
			return n
		}
		if _, ok := n.(local.Bit2Node); ok {
			return local.BitProgram(unfusedBit2{unfusedBit{b}})
		}
		return local.BitProgram(unfusedBit{b})
	}
}

// TestFusedCasterEquivalence runs the fused-path stress program, at 1-bit
// and 2-bit lanes, under every engine and compares outputs and Stats
// against the sequential engine running the unfused program. Every engine
// must take the fused path (no RoundB call) and the reference must not
// (every node-round through RoundB), so neither side can silently run the
// other's schedule.
func TestFusedCasterEquivalence(t *testing.T) {
	t.Parallel()
	g := graph.RandomGraph(240, 0.04, prob.NewSource(17).Rand())
	topo := local.NewTopology(g)
	n := g.N()
	const tail = 50
	for _, wide := range []bool{false, true} {
		wide := wide
		name := "bit"
		if wide {
			name = "bit2"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ref := make([]uint64, n)
			var refCalls atomic.Int64
			refStats, err := local.SequentialEngine{}.Run(
				topo, unfused(castTailFactory(tail, ref, wide, &refCalls)), local.Options{Source: prob.NewSource(8)})
			if err != nil {
				t.Fatal(err)
			}
			if refStats.Rounds != tail {
				t.Fatalf("reference ran %d rounds, want the %d-round tail", refStats.Rounds, tail)
			}
			var nodeRounds int64
			for idx := 0; idx < n; idx++ {
				nodeRounds += int64(castTailStop(idx, tail))
			}
			if c := refCalls.Load(); c != nodeRounds {
				t.Fatalf("reference made %d RoundB calls, want one per node-round (%d): unfused leaked CastB", c, nodeRounds)
			}
			for _, eng := range allEngines() {
				out := make([]uint64, n)
				var calls atomic.Int64
				stats, err := eng.e.Run(topo, castTailFactory(tail, out, wide, &calls), local.Options{Source: prob.NewSource(8)})
				if err != nil {
					t.Fatalf("%s: %v", eng.name, err)
				}
				if c := calls.Load(); c != 0 {
					t.Errorf("%s: %d RoundB calls, want the fused CastB path only", eng.name, c)
				}
				if stats != refStats {
					t.Errorf("%s: stats %+v, want %+v", eng.name, stats, refStats)
				}
				for v := range out {
					if out[v] != ref[v] {
						t.Errorf("%s: node %d output %#x, want %#x", eng.name, v, out[v], ref[v])
						break
					}
				}
			}
		})
	}
}
