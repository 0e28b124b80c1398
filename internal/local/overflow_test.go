package local

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/prob"
)

// TestTopologyArcOverflow pins the int32 delivery-table guard: off and
// deliver index arcs with int32, so a graph past math.MaxInt32 directed arcs
// must be rejected with a descriptive error, not wrapped offsets. The limit
// is a package var so the test lowers it instead of building a 2^31-arc
// graph.
func TestTopologyArcOverflow(t *testing.T) {
	defer func(old int) { maxTopologyArcs = old }(maxTopologyArcs)
	maxTopologyArcs = 6

	small := graph.PathGraph(4) // 3 edges = 6 arcs: at the limit
	if _, err := NewTopologyE(small); err != nil {
		t.Fatalf("at-limit topology rejected: %v", err)
	}

	big := graph.PathGraph(5) // 4 edges = 8 arcs: over
	if _, err := NewTopologyE(big); err == nil || !strings.Contains(err.Error(), "delivery-table limit") {
		t.Fatalf("over-limit topology error not descriptive: %v", err)
	}

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("NewTopology on an over-limit graph must panic")
		}
		if err, ok := r.(error); !ok || !strings.Contains(err.Error(), "delivery-table limit") {
			t.Fatalf("panic value not the descriptive error: %v", r)
		}
	}()
	NewTopology(big)
}

// TestBitPlaneLaneIndexOverflow pins the packed plane's lane-index guard:
// lane bit offsets are uint32, so a plane past maxBitPlaneBits bits (2^32
// in production, reached at 2^30 arcs with 4-bit lanes) must not run on
// the bit plane. PlaneAuto falls back to the word plane with identical
// results; a forced PlaneBit fails with a descriptive error. The limit is
// lowered instead of building a 2^30-arc graph.
func TestBitPlaneLaneIndexOverflow(t *testing.T) {
	defer func(old uint64) { maxBitPlaneBits = old }(maxBitPlaneBits)
	topo := NewTopology(graph.PathGraph(5)) // 8 arcs: 16 bits at width 1, 32 at width 2
	maxBitPlaneBits = 16
	nodes := func(width int) []Node {
		ns := make([]Node, topo.N())
		for v := range ns {
			if width == 2 {
				ns[v] = BitProgram(Bit2Func(func(int, BitRow, BitRow) bool { return true }))
			} else {
				ns[v] = BitProgram(BitFunc(func(int, BitRow, BitRow) bool { return true }))
			}
		}
		return ns
	}
	if bs, bw, _, err := planeNodes(nodes(1), PlaneAuto, len(topo.adj)); err != nil || bs == nil || bw != 1 {
		t.Fatalf("width 1 at the limit: bit=%v width=%d err=%v, want the bit plane", bs != nil, bw, err)
	}
	bs, _, ws, err := planeNodes(nodes(2), PlaneAuto, len(topo.adj))
	if err != nil || bs != nil || ws == nil {
		t.Fatalf("width 2 past the limit on PlaneAuto: bit=%v word=%v err=%v, want the word plane", bs != nil, ws != nil, err)
	}
	if _, _, _, err := planeNodes(nodes(2), PlaneBit, len(topo.adj)); err == nil || !strings.Contains(err.Error(), "lane-index limit") {
		t.Fatalf("forced PlaneBit past the limit: err %v, want the lane-index limit error", err)
	}

	// End to end: a trit program past the limit runs on the word plane under
	// every engine, with the results of the unguarded bit-plane run.
	g := graph.RandomGraph(60, 0.1, prob.NewSource(3).Rand())
	big := NewTopology(g)
	run := func(e Engine, plane Plane) ([]uint64, Stats, error) {
		out := make([]uint64, big.N())
		st, err := e.Run(big, bit2EchoTwin(6, out), Options{Source: prob.NewSource(4), Plane: plane})
		return out, st, err
	}
	maxBitPlaneBits = uint64(1) << 32
	want, wantSt, err := run(SequentialEngine{}, PlaneBit)
	if err != nil {
		t.Fatal(err)
	}
	maxBitPlaneBits = uint64(len(big.adj))<<2 - 1
	for _, e := range []Engine{SequentialEngine{}, WorkerPoolEngine{Workers: 2}, BatchEngine{Workers: 2}} {
		if _, _, err := run(e, PlaneBit); err == nil || !strings.Contains(err.Error(), "lane-index limit") {
			t.Errorf("%T: forced PlaneBit past the limit: err %v", e, err)
		}
		out, st, err := run(e, PlaneAuto)
		if err != nil || st != wantSt {
			t.Errorf("%T: PlaneAuto past the limit: stats %+v err %v, want %+v", e, st, err, wantSt)
		}
		for v := range out {
			if out[v] != want[v] {
				t.Errorf("%T: node %d output %#x, want %#x", e, v, out[v], want[v])
				break
			}
		}
	}
}

// bit2EchoTwin is a trit program for the overflow test: each node folds the
// lanes it hears and broadcasts a trit of the fold until round rounds.
func bit2EchoTwin(rounds int, out []uint64) Factory {
	idx := 0
	return func(v View) Node {
		i := idx
		idx++
		acc := v.Rand.Uint64()
		return BitProgram(Bit2Func(func(r int, recv, send BitRow) bool {
			for p := 0; p < recv.Len(); p++ {
				if x, ok := recv.Lane(p); ok {
					acc = (acc ^ uint64(p)<<4 ^ x) * 1099511628211
				}
			}
			out[i] = acc
			if r >= rounds {
				return true
			}
			send.Broadcast(acc % 3)
			return false
		}))
	}
}
