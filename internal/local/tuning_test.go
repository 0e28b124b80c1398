// Tuning-knob tests: the cache mechanisms (scatter prefetch, fused broadcast
// scatter) must be observationally
// invisible — every knob combination reproduces the checked-in golden
// traces bit-identically on every engine — and the spec parser must accept
// exactly the documented tokens.
package local_test

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/prob"
)

// tuningCombos is the ablation grid: each mechanism forced off alone, all
// off together, and non-default prefetch windows at both edges. The zero
// value — all defaults — is what the rest of the suite already runs.
func tuningCombos() []struct {
	name string
	tn   local.Tuning
} {
	return []struct {
		name string
		tn   local.Tuning
	}{
		{"all-off", local.Tuning{Prefetch: -1, NoFuse: true}},
		{"nofuse", local.Tuning{NoFuse: true}},
		{"prefetch-1", local.Tuning{Prefetch: 1}},
		{"prefetch-64", local.Tuning{Prefetch: 64}},
	}
}

// TestTuningAblationGoldenTraces re-runs the golden fixed points under
// every knob combination × engine: the boxed/word trace program and the
// packed bit trace program must reproduce the same checked-in hashes the
// untuned engines pin, which is the bit-identical contract every tuning
// mechanism is built against.
func TestTuningAblationGoldenTraces(t *testing.T) {
	t.Parallel()
	g := graph.RandomSparseGraph(500, 1500, prob.NewSource(77).Rand())
	topo := local.NewTopology(g)
	wantTrace := goldenTraces["sparse500/trace"]
	wantBit := goldenTraces["sparse500/bit-trace"]
	for _, combo := range tuningCombos() {
		combo := combo
		t.Run(combo.name, func(t *testing.T) {
			t.Parallel()
			for _, eng := range allEngines() {
				tuned := local.ForceTuning(eng.e, combo.tn)
				if got := traceHash(t, g, tuned, 99); got != wantTrace {
					t.Errorf("%s: trace hash %#016x, want golden %#016x", eng.name, got, wantTrace)
				}
				src := prob.NewSource(99)
				ids := local.PermutationIDs(g.N(), src.Fork(1))
				out := make([]uint64, g.N())
				stats, err := tuned.Run(topo, bitTraceFactory(5, out), local.Options{Source: src, IDs: ids})
				if err != nil {
					t.Fatalf("%s: %v", eng.name, err)
				}
				if got := foldRun(out, stats.Rounds, stats.Messages); got != wantBit {
					t.Errorf("%s: bit trace hash %#016x, want golden %#016x", eng.name, got, wantBit)
				}
			}
		})
	}
}

// castTail is the fused-path stress program: a BitBroadcaster with the
// shattering-shaped round structure — most nodes terminate within three
// rounds, a sparse residual keeps broadcasting for a long tail — so runs
// exercise the dense pull rounds, the switch back to push, and retirement
// under attrition, all at once.
type castTail struct {
	v    local.View
	acc  uint64
	stop int
	out  []uint64
	idx  int
}

func (n *castTail) CastB(r int, recv local.BitRow) (uint64, bool, bool) {
	n.acc = n.acc*1099511628211 + uint64(recv.CountPresent())<<8 ^ uint64(recv.CountValue(1))
	if r >= n.stop {
		n.out[n.idx] = n.acc
		return uint64(r) & 1, true, true // parting broadcast on the way out
	}
	return (n.acc ^ uint64(r)) & 1, true, false
}

func (n *castTail) RoundB(r int, recv, send local.BitRow) bool {
	v, cast, done := n.CastB(r, recv)
	if cast {
		send.Broadcast(v)
	}
	return done
}

// castTailFactory gives node v a stop round of 2+v%3 rounds, with every
// 37th node surviving to the full tail.
func castTailFactory(tail int, out []uint64) local.Factory {
	idx := 0
	return func(v local.View) local.Node {
		stop := 2 + idx%3
		if idx%37 == 0 {
			stop = tail
		}
		n := &castTail{v: v, stop: stop, out: out, idx: idx}
		idx++
		return local.BitProgram(n)
	}
}

// TestFusedCasterEquivalence runs the fused-path stress program under every
// engine × knob combination and compares outputs and Stats against a
// sequential reference with every mechanism disabled: the fused CastB path
// (push and pull) and the prefetched scatters must be indistinguishable
// from the plain scratch-row schedule.
func TestFusedCasterEquivalence(t *testing.T) {
	t.Parallel()
	g := graph.RandomGraph(240, 0.04, prob.NewSource(17).Rand())
	topo := local.NewTopology(g)
	n := g.N()
	const tail = 50
	ref := make([]uint64, n)
	off := local.Tuning{Prefetch: -1, NoFuse: true}
	refStats, err := local.ForceTuning(local.SequentialEngine{}, off).Run(
		topo, castTailFactory(tail, ref), local.Options{Source: prob.NewSource(8)})
	if err != nil {
		t.Fatal(err)
	}
	if refStats.Rounds != tail {
		t.Fatalf("reference ran %d rounds, want the %d-round tail", refStats.Rounds, tail)
	}
	combos := append(tuningCombos(), struct {
		name string
		tn   local.Tuning
	}{"defaults", local.Tuning{}})
	for _, combo := range combos {
		combo := combo
		t.Run(combo.name, func(t *testing.T) {
			t.Parallel()
			for _, eng := range allEngines() {
				out := make([]uint64, n)
				stats, err := local.ForceTuning(eng.e, combo.tn).Run(
					topo, castTailFactory(tail, out), local.Options{Source: prob.NewSource(8)})
				if err != nil {
					t.Fatalf("%s: %v", eng.name, err)
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

// TestParseTuning pins the CLI spec grammar.
func TestParseTuning(t *testing.T) {
	t.Parallel()
	good := []struct {
		spec string
		want local.Tuning
	}{
		{"", local.Tuning{}},
		{"noprefetch", local.Tuning{Prefetch: -1}},
		{"prefetch=3, nofuse", local.Tuning{Prefetch: 3, NoFuse: true}},
	}
	for _, tc := range good {
		got, err := local.ParseTuning(tc.spec)
		if err != nil {
			t.Errorf("ParseTuning(%q): %v", tc.spec, err)
		} else if got != tc.want {
			t.Errorf("ParseTuning(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
	for _, spec := range []string{"bogus", "prefetch=0", "prefetch=x", "prefetch"} {
		if _, err := local.ParseTuning(spec); err == nil {
			t.Errorf("ParseTuning(%q) accepted", spec)
		}
	}
	// The sticky-shard and tiling knobs were removed: their tokens fail
	// loudly, naming the knobs that remain.
	for _, spec := range []string{"nosticky", "notile", "tile=2", "tilebudget=512", "nofuse,notile"} {
		_, err := local.ParseTuning(spec)
		if err == nil || !strings.Contains(err.Error(), "was removed") || !strings.Contains(err.Error(), "noprefetch, prefetch=N, nofuse") {
			t.Errorf("ParseTuning(%q): err %v, want a removed-knob error", spec, err)
		}
	}
}
