package local

import "fmt"

// WorkerPoolEngine is the throughput engine: a run is the one-trial batch,
// BatchRun(t, []Trial{{f, opts}}, BatchOptions{Workers: e.Workers}). Word
// and bit programs run on BatchRun's worker pool over its arc-balanced
// (trial, shard) units; boxed runs have no throughput path and run on the
// boxed loop. SequentialEngine is the same batch at one inline worker. Like
// every engine it is bit-for-bit identical to the boxed reference run:
// per-node randomness is derived from (seed, ID) only, never from the
// schedule.
type WorkerPoolEngine struct {
	// Workers is the pool size; <= 0 means runtime.GOMAXPROCS(0). BatchRun
	// caps it at the most units a round of the run can carve.
	Workers int
}

var _ Engine = WorkerPoolEngine{}

// Run implements Engine.
func (e WorkerPoolEngine) Run(t *Topology, f Factory, opts Options) (Stats, error) {
	stats, errs := BatchRun(t, []Trial{{Factory: f, Opts: opts}}, BatchOptions{Workers: e.Workers})
	return stats[0], errs[0]
}

// ParseEngine resolves a command-line engine name: "seq" (or "sequential")
// or "pool" (or "batch", a synonym kept so existing command lines work).
// poolWorkers sizes the worker pool when name is "pool" or "batch" (<= 0
// means GOMAXPROCS) and is ignored otherwise. The one-goroutine-per-node
// engine was removed; asking for it by name fails with an error that says
// so.
func ParseEngine(name string, poolWorkers int) (Engine, error) {
	switch name {
	case "seq", "sequential":
		return SequentialEngine{}, nil
	case "pool", "batch":
		return WorkerPoolEngine{Workers: poolWorkers}, nil
	case "goroutine":
		return nil, fmt.Errorf("local: engine %q was removed: use seq for the reference run or pool for throughput (have seq, pool, batch)", name)
	default:
		return nil, fmt.Errorf("local: unknown engine %q (have seq, pool, batch)", name)
	}
}

// EngineUsesWorkers reports whether the named engine consumes a worker-pool
// size, so CLIs can reject a -workers flag that would be silently ignored.
func EngineUsesWorkers(name string) bool {
	return name == "pool" || name == "batch"
}
