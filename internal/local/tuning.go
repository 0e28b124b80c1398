package local

import (
	"fmt"
	"strconv"
	"strings"
)

// This file defines the cache-tuning knobs of the execution engines. Both
// are observationally invisible — golden traces, Stats and outputs are
// bit-identical with every combination of knobs, which is what makes the
// ablations trustworthy — and exist so regressions can be bisected to one
// mechanism and so the identity suite can force each mechanism on and off.
//
// The two mechanisms (see DESIGN.md §3 "Memory layout"):
//
//   - scatter prefetch: the deliver[] indirection makes every scatter store
//     a dependent random access; a small look-ahead window touches the
//     target plane lines before the store loop so the misses overlap.
//   - fused broadcast scatter: programs whose sends are whole-row
//     broadcasts skip the send scratch row entirely; see BitBroadcaster.
//     The throughput bit loop delivers such casts by pull in dense
//     fault-free rounds (see castSlots) and by push otherwise; which one
//     runs follows from the round's density, not from a knob, and NoFuse
//     turns off both.

// defaultPrefetchWindow is the scatter look-ahead a zero Prefetch selects.
const defaultPrefetchWindow = 8

// Tuning carries the cache-tuning knobs of a run. The zero value selects
// every default (all mechanisms on); knobs only change wall-clock time,
// never observable behavior.
type Tuning struct {
	// Prefetch is the scatter look-ahead window in arcs: 0 means the
	// default window, < 0 disables prefetching.
	Prefetch int
	// NoFuse disables the fused broadcast fast paths, push and pull alike,
	// forcing every program through the send scratch row.
	NoFuse bool
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

// ParseTuning resolves a command-line tuning spec: a comma-separated list
// of "noprefetch", "prefetch=N" and "nofuse" tokens (empty string means all
// defaults). The removed sticky-shard and tiling knobs ("nosticky",
// "notile", "tile=R", "tilebudget=W") fail with an error that says so.
func ParseTuning(spec string) (Tuning, error) {
	var tn Tuning
	if spec == "" {
		return tn, nil
	}
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		key, val, hasVal := strings.Cut(tok, "=")
		switch {
		case tok == "noprefetch":
			tn.Prefetch = -1
		case tok == "nofuse":
			tn.NoFuse = true
		case key == "prefetch" && hasVal:
			x, err := strconv.Atoi(val)
			if err != nil || x < 1 {
				return Tuning{}, fmt.Errorf("local: tuning token %q needs an integer >= 1", tok)
			}
			tn.Prefetch = x
		case tok == "nosticky" || tok == "notile" || key == "tile" || key == "tilebudget":
			return Tuning{}, fmt.Errorf("local: tuning knob %q was removed with sticky shards and tiled blocks (have noprefetch, prefetch=N, nofuse)", tok)
		default:
			return Tuning{}, fmt.Errorf("local: unknown tuning token %q (have noprefetch, prefetch=N, nofuse)", tok)
		}
	}
	return tn, nil
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
