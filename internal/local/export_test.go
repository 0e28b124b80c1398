package local

import (
	"os"
	"testing"
)

// testMinShard is the smallest unit weight BatchRun carves in this
// package's tests. The fixtures weigh a few hundred 1+deg units, less than
// one production batchMinShard, so at the production value every
// multi-worker run of them would carve a single unit and run it inline:
// the atomic scatter and the shared-word clears would never run
// concurrently. At 32 the determinism, pull, control, panic and alloc
// fixtures split into several units per worker.
const testMinShard = 32

// TestMain lowers batchMinShard once, before any test runs, so no test
// writes it while another reads it.
func TestMain(m *testing.M) {
	batchMinShard = testMinShard
	os.Exit(m.Run())
}

// OverlayLayers counts the overlay wrappers stacked around e.
func OverlayLayers(e Engine) int {
	n := 0
	for {
		o, ok := e.(overlaid)
		if !ok {
			return n
		}
		n++
		e = o.e
	}
}

// Oracle is the reference run of every differential test in the package:
// the sequential engine forced onto the boxed plane. Its loop, runSeqBoxed,
// reads every message as a plain Message value and shares no code with the
// word and bit loops it checks, so the suites stay reference-vs-throughput
// differentials.
var Oracle = Overlay{Plane: PlaneBoxed}.On(SequentialEngine{})
