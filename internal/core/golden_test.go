// Solver golden digests: the two headline pipelines (Theorem 2.5 as `det`,
// Theorem 1.2's shattering path as `rand`) are run end to end on fixed
// seeds, exactly as the sweep harness runs them, and the instance, the
// coloring and the trace are folded into one FNV-1a digest per seed. The
// graph transforms on the solver path (generator, virtual split,
// truncation, B² conflict graph, residual components) are rewritten for
// speed from time to time; these constants pin that every rewrite leaves
// the solvers' outputs bit-identical.
//
// If a deliberate output-changing edit is made, regenerate the constants
// by running the test (with and without -short) and copying the "got"
// digests from the failure output.
package core_test

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/prob"
)

// goldenCase is one (algorithm, instance shape) pair with its digests for
// seeds 1, 2 and 3.
type goldenCase struct {
	algo      string
	nu, nv, d int
	want      [3]uint64
}

// The sweep workload's two grids, recorded before the transforms on the
// solver path were rewritten. Under -short the rand grid shrinks to the
// service's rand shape, which still takes the shattering path
// (δ < 2·log n).
var (
	goldenDet       = goldenCase{algo: "det", nu: 1000, nv: 4000, d: 32, want: [3]uint64{0x0be001ccc6d3c98e, 0xaabb8f6f5aea0336, 0x970bff4b01e9bf30}}
	goldenRandLong  = goldenCase{algo: "rand", nu: 20000, nv: 80000, d: 24, want: [3]uint64{0xd533c6bf6717b770, 0xd219b47b70ab0f4a, 0x32066a83f6593c85}}
	goldenRandShort = goldenCase{algo: "rand", nu: 2000, nv: 8000, d: 16, want: [3]uint64{0xea5b585343e46c9a, 0x4efb73ffc389b025, 0xd7930f4dda0a5721}}
)

func TestSolverGoldenDigests(t *testing.T) {
	rand := goldenRandLong
	if testing.Short() {
		rand = goldenRandShort
	}
	for _, gc := range []goldenCase{goldenDet, rand} {
		spec, ok := experiments.AlgoSpecFor(gc.algo)
		if !ok {
			t.Fatalf("unknown algorithm %q", gc.algo)
		}
		for i, want := range gc.want {
			seed := uint64(i + 1)
			name := fmt.Sprintf("%s/%dx%d-d%d/seed%d", gc.algo, gc.nu, gc.nv, gc.d, seed)
			t.Run(name, func(t *testing.T) {
				// The sweep harness hands Build NewSource(seed) and Solve
				// NewSource(seed).Fork(1).
				b, err := experiments.BuildInstance("leftregular", "", gc.nu, gc.nv, gc.d, prob.NewSource(seed))
				if err != nil {
					t.Fatal(err)
				}
				res, err := spec.Solve(b, prob.NewSource(seed).Fork(1), local.SequentialEngine{})
				if err != nil {
					t.Fatal(err)
				}
				if got := solverDigest(b, res); got != want {
					t.Errorf("digest = %#x, want %#x", got, want)
				}
			})
		}
	}
}

// solverDigest folds the instance's two CSR sides, the colors and the
// trace (phases and notes, in order) into one FNV-1a hash.
func solverDigest(b *graph.Bipartite, res *core.Result) uint64 {
	h := fnv.New64a()
	putCSR(h, b.CSRU())
	putCSR(h, b.CSRV())
	putInt(h, len(res.Colors))
	for _, c := range res.Colors {
		putInt(h, c)
	}
	putInt(h, len(res.Trace.Phases))
	for _, p := range res.Trace.Phases {
		putString(h, p.Name)
		putInt(h, p.Rounds)
	}
	putInt(h, len(res.Trace.Notes))
	for _, n := range res.Trace.Notes {
		putString(h, n)
	}
	return h.Sum64()
}

func putCSR(h hash.Hash64, c graph.CSR) {
	putInt(h, len(c.Off))
	for _, x := range c.Off {
		putInt(h, int(x))
	}
	putInt(h, len(c.Edges))
	for _, x := range c.Edges {
		putInt(h, int(x))
	}
}

func putInt(h hash.Hash64, x int) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(x))
	h.Write(buf[:])
}

func putString(h hash.Hash64, s string) {
	putInt(h, len(s))
	h.Write([]byte(s))
}
