// Snapshot round-trip identity: a graph loaded from a binary CSR snapshot
// must be observationally indistinguishable from the freshly generated
// graph it was exported from — same neighbor order, same port numbering,
// same delivery tables — under every engine and every forced message plane.
// The pin is the folded message-trace hash of the golden-trace programs: a
// snapshot reader that reordered rows, dropped arcs, or rebuilt the CSR
// with different tie-breaking would shift ports and change the hash.
package local_test

import (
	"bytes"
	"testing"

	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/prob"
)

// roundTrip exports g as a snapshot and imports it back.
func roundTrip(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	var buf bytes.Buffer
	if err := g.ExportSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := graph.ImportSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// TestSnapshotRoundTripTraceIdentity runs the bit-capable trace program on
// a skewed power-law topology — fresh versus snapshot-loaded — across every
// engine × forced plane combination and requires bit-identical trace
// hashes. The power-law shape matters: its degree spread exercises the
// arc-balanced sharding and the packed planes' variable-width rows.
func TestSnapshotRoundTripTraceIdentity(t *testing.T) {
	t.Parallel()
	fresh := graph.RandomPowerLawGraph(2000, 2.2, 200, prob.NewSource(13).Rand())
	loaded := roundTrip(t, fresh)

	run := func(g *graph.Graph, eng local.Engine) uint64 {
		src := prob.NewSource(99)
		ids := local.PermutationIDs(g.N(), src.Fork(1))
		out := make([]uint64, g.N())
		stats, err := eng.Run(local.NewTopology(g), bitTraceFactory(5, out), local.Options{Source: src, IDs: ids})
		if err != nil {
			t.Fatal(err)
		}
		return foldRun(out, stats.Rounds, stats.Messages)
	}
	for _, eng := range allEngines() {
		for _, plane := range []local.Plane{local.PlaneBit, local.PlaneWord, local.PlaneBoxed} {
			e := local.Overlay{Plane: plane}.On(eng.e)
			want := run(fresh, e)
			if got := run(loaded, e); got != want {
				t.Errorf("%s/%s: snapshot-loaded trace hash %#016x, fresh %#016x",
					eng.name, plane, got, want)
			}
		}
	}
}

// TestSnapshotRoundTripBoxedTraces repeats the identity check with the
// boxed-only trace program on the golden topologies, so the snapshot path
// is also pinned against the exact graphs whose hashes are checked in.
func TestSnapshotRoundTripBoxedTraces(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		seed uint64
	}{
		{"sparse500", graph.RandomSparseGraph(500, 1500, prob.NewSource(77).Rand()), 99},
		{"cycle64", graph.Cycle(64), 41},
	} {
		loaded := roundTrip(t, tc.g)
		for _, eng := range allEngines() {
			want := traceHash(t, tc.g, eng.e, tc.seed)
			if got := traceHash(t, loaded, eng.e, tc.seed); got != want {
				t.Errorf("%s/%s: snapshot-loaded trace hash %#016x, fresh %#016x",
					tc.name, eng.name, got, want)
			}
		}
		if want, ok := goldenTraces[tc.name+"/trace"]; ok {
			if got := traceHash(t, loaded, local.Oracle, tc.seed); got != want {
				t.Errorf("%s: snapshot-loaded hash %#016x misses the checked-in golden %#016x",
					tc.name, got, want)
			}
		}
	}
}
