package local

import (
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/prob"
)

// TestBitPlaneLeavesShimsNil pins that BitProgram's word/boxed fallback
// state is lazy: bit-plane runs on both engines never allocate an adapter's
// shim, while forced word and boxed runs of the same program allocate it on
// first use and still match the oracle (itself the boxed run) output for
// output.
func TestBitPlaneLeavesShimsNil(t *testing.T) {
	t.Parallel()
	g := graph.RandomGraph(150, 0.04, prob.NewSource(21).Rand())
	topo := NewTopology(g)
	n := topo.N()
	cases := []pullCase{
		{name: "mixed", pusher: func(i int) bool { return i%3 == 0 }},
		{name: "mixed-w2", pusher: func(i int) bool { return i%4 == 1 }, width: 2},
	}
	engines := []struct {
		name     string
		eng      Engine
		wantShim bool
	}{
		{"seq-bit", SequentialEngine{}, false},
		{"pool-bit", WorkerPoolEngine{Workers: 2}, false},
		{"seq-word", Overlay{Plane: PlaneWord}.On(SequentialEngine{}), true},
		{"oracle", Oracle, true},
	}
	for _, pc := range cases {
		outs := make([][]uint64, len(engines))
		stats := make([]Stats, len(engines))
		for i, e := range engines {
			out := make([]uint64, n)
			var gathered atomic.Bool
			inner := pc.factory(out, &gathered, 0, 0, nil)
			var adapters []*bitAdapter
			f := func(v View) Node {
				node := inner(v)
				switch a := node.(type) {
				case *bitAdapter:
					adapters = append(adapters, a)
				case *bit2Adapter:
					adapters = append(adapters, &a.bitAdapter)
				default:
					t.Fatalf("BitProgram returned %T", node)
				}
				return node
			}
			st, err := e.eng.Run(topo, f, Options{Source: prob.NewSource(7)})
			if err != nil {
				t.Fatalf("%s/%s: %v", pc.name, e.name, err)
			}
			for v, a := range adapters {
				if (a.shim != nil) != e.wantShim {
					t.Fatalf("%s/%s: node %d has shim %v, want allocated = %v", pc.name, e.name, v, a.shim != nil, e.wantShim)
				}
			}
			outs[i], stats[i] = out, st
		}
		// The oracle runs last; every other row is checked against it.
		want, wantSt := outs[len(engines)-1], stats[len(engines)-1]
		for i, e := range engines[:len(engines)-1] {
			if stats[i] != wantSt {
				t.Errorf("%s/%s: stats %+v, oracle %+v", pc.name, e.name, stats[i], wantSt)
			}
			for v := range want {
				if outs[i][v] != want[v] {
					t.Errorf("%s/%s: node %d output %x, oracle %x", pc.name, e.name, v, outs[i][v], want[v])
					break
				}
			}
		}
	}
}
