package local

import (
	"fmt"
	"strconv"
	"strings"
)

// This file defines the cache-tuning knobs of the execution engines. All of
// them are observationally invisible — golden traces, Stats and outputs are
// bit-identical with every combination of knobs, which is what makes the
// ablations trustworthy — and exist so regressions can be bisected to one
// mechanism and so the identity suite can force each mechanism on and off.
//
// The four mechanisms (see DESIGN.md §3 "Memory layout and tiling"):
//
//   - sticky shard affinity: the pool engines reuse the previous round's
//     shard carve instead of re-carving (and re-assigning plane rows to
//     other cores) every round; see shardPlan.
//   - scatter prefetch: the deliver[] indirection makes every scatter store
//     a dependent random access; a small look-ahead window touches the
//     target plane lines before the store loop so the misses overlap.
//   - fused broadcast scatter: programs whose sends are whole-row
//     broadcasts skip the send scratch row entirely; see BitBroadcaster.
//     The pool and batch bit loops deliver such casts by pull in dense
//     fault-free rounds (see castSlots) and by push otherwise; which one
//     runs follows from the round's density, not from a knob, and NoFuse
//     turns off both.
//   - tiled rounds: when the active residue shatters into components small
//     enough to stay cache-resident, a worker runs several rounds of one
//     tile back-to-back instead of streaming the whole plane per round;
//     see bitTiler.

// Default knob values; zero Tuning fields resolve to these.
const (
	defaultPrefetchWindow = 8
	defaultTileRounds     = 4
	// defaultTileBudget is the tile weight cap in carveShards' 1+deg units.
	// 32k weight ≈ 32k arcs ≈ 16 KB of 4-bit plane rows per buffer — the
	// working set of one tile block stays far inside L2.
	defaultTileBudget = 1 << 15
)

// Tuning carries the cache-tuning knobs of a run. The zero value selects
// every default (all mechanisms on); knobs only change wall-clock time,
// never observable behavior.
type Tuning struct {
	// Prefetch is the scatter look-ahead window in arcs: 0 means the
	// default window, < 0 disables prefetching.
	Prefetch int
	// NoSticky re-carves pool shards every round (the pre-affinity
	// behavior), for ablations.
	NoSticky bool
	// NoFuse disables the fused broadcast fast paths, push and pull alike,
	// forcing every program through the send scratch row.
	NoFuse bool
	// TileRounds is the number of rounds a tiled block executes
	// back-to-back per tile: 0 means the default, 1 or < 0 disables tiling.
	TileRounds int
	// TileBudget is the per-tile weight cap in 1+deg units: 0 means the
	// default, < 0 disables tiling.
	TileBudget int
}

// prefetchBit resolves the scatter look-ahead window for the packed bit
// planes, where the touch loads are atomic and therefore safe (and clean
// under the race detector) against concurrent atomic-OR deliveries.
func (tn Tuning) prefetchBit() int {
	switch {
	case tn.Prefetch < 0:
		return 0
	case tn.Prefetch == 0:
		return defaultPrefetchWindow
	}
	return tn.Prefetch
}

// prefetchScalar resolves the look-ahead window for the word and boxed
// planes. Their touch loads race benignly with the owning writer's plain
// stores (the loaded value is discarded, and 64-bit aligned loads cannot
// tear), but the race detector rightly flags mixed plain/atomic access —
// so race-instrumented builds turn the scalar windows off.
func (tn Tuning) prefetchScalar() int {
	if raceDetector {
		return 0
	}
	return tn.prefetchBit()
}

// tileRounds resolves the rounds-per-block knob; < 2 means untiled.
func (tn Tuning) tileRounds() int {
	if tn.TileRounds == 0 {
		return defaultTileRounds
	}
	if tn.TileRounds < 2 {
		return 1
	}
	return tn.TileRounds
}

// tileBudget resolves the per-tile weight cap; 0 means untiled.
func (tn Tuning) tileBudget() int64 {
	if tn.TileBudget == 0 {
		return defaultTileBudget
	}
	if tn.TileBudget < 0 {
		return 0
	}
	return int64(tn.TileBudget)
}

// ParseTuning resolves a command-line tuning spec: a comma-separated list
// of "noprefetch", "prefetch=N", "nosticky", "nofuse", "notile", "tile=R"
// and "tilebudget=W" tokens (empty string means all defaults).
func ParseTuning(spec string) (Tuning, error) {
	var tn Tuning
	if spec == "" {
		return tn, nil
	}
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		key, val, hasVal := strings.Cut(tok, "=")
		var err error
		switch {
		case tok == "noprefetch":
			tn.Prefetch = -1
		case tok == "nosticky":
			tn.NoSticky = true
		case tok == "nofuse":
			tn.NoFuse = true
		case tok == "notile":
			tn.TileRounds = -1
		case key == "prefetch" && hasVal:
			if tn.Prefetch, err = parseTuneInt(tok, val, 1); err != nil {
				return Tuning{}, err
			}
		case key == "tile" && hasVal:
			if tn.TileRounds, err = parseTuneInt(tok, val, 2); err != nil {
				return Tuning{}, err
			}
		case key == "tilebudget" && hasVal:
			if tn.TileBudget, err = parseTuneInt(tok, val, 1); err != nil {
				return Tuning{}, err
			}
		default:
			return Tuning{}, fmt.Errorf("local: unknown tuning token %q (have noprefetch, prefetch=N, nosticky, nofuse, notile, tile=R, tilebudget=W)", tok)
		}
	}
	return tn, nil
}

func parseTuneInt(tok, val string, min int) (int, error) {
	x, err := strconv.Atoi(val)
	if err != nil || x < min {
		return 0, fmt.Errorf("local: tuning token %q needs an integer >= %d", tok, min)
	}
	return x, nil
}

// ForceTuning wraps an engine so every run uses the given tuning knobs,
// mirroring ForcePlane: CLIs hand algorithms a tuned engine and the knobs
// follow it wherever it is used. The zero Tuning returns the engine
// unchanged (the defaults are what an unwrapped run uses anyway).
func ForceTuning(e Engine, tn Tuning) Engine {
	if tn == (Tuning{}) {
		return e
	}
	return tuneEngine{e: e, tn: tn}
}

type tuneEngine struct {
	e  Engine
	tn Tuning
}

// Run implements Engine.
func (te tuneEngine) Run(t *Topology, f Factory, opts Options) (Stats, error) {
	opts.Tune = te.tn
	return te.e.Run(t, f, opts)
}
