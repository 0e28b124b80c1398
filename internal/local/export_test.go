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
