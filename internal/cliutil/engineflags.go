package cliutil

import (
	"flag"
	"fmt"

	"repro/internal/local"
)

// EngineFlags is the LOCAL engine flag block that wsplit and splitbench
// share, registered once on a flag set:
//
// -engine selects the LOCAL simulation engine: "seq" iterates nodes in one
// goroutine, and "pool" (or its synonym "batch") runs each simulation as a
// one-trial batch, sharding nodes over a worker pool (the fastest choice on
// large instances). The pool is the throughput path for word and bit
// programs; boxed programs run on the boxed loop under every engine.
// Engines are observationally identical, so the flag changes wall-clock
// time only. The removed "goroutine" engine is a usage error.
//
// -plane pins the message-plane representation of every LOCAL run ("auto",
// the default, lets each run take the fastest plane its programs support —
// bit, then word, then boxed). Planes are observationally identical; the
// flag exists for plane ablations. Forcing a plane some program cannot take
// fails that run loudly rather than silently falling back.
//
// -drop, -delay, -crash and -faultseed inject a deterministic fault plan
// (message drops, bounded redelivery delay, crash-stop failures) into every
// LOCAL run, keyed by -faultseed independently of the CLI's -seed; the same
// plan replays bit-identically on every engine, plane and worker count.
// The paper's solvers self-check, so under faults expect loud failures: the
// flags are a stress knob. -delay and -faultseed only modulate an active
// plan, so they require -drop or -crash.
//
// A forced plane or an active fault plan cannot be combined with a CLI's
// -batch path: the batched trials run through BatchRun directly and would
// ignore the engine's overlay.
type EngineFlags struct {
	fs        *flag.FlagSet
	engine    string
	plane     string
	drop      float64
	delay     int
	crash     float64
	faultSeed uint64
}

// NewEngineFlags registers the engine flag block on fs.
func NewEngineFlags(fs *flag.FlagSet) *EngineFlags {
	f := &EngineFlags{fs: fs}
	fs.StringVar(&f.engine, "engine", "seq", "LOCAL engine: seq|pool|batch (boxed programs always run on seq)")
	fs.StringVar(&f.plane, "plane", "auto", "message plane: auto|boxed|word|bit (forced planes fail loudly on incapable programs)")
	fs.Float64Var(&f.drop, "drop", 0, "fault injection: per-message drop probability in [0,1]")
	fs.IntVar(&f.delay, "delay", 0, "fault injection: dropped messages are redelivered up to N rounds late instead of lost (needs -drop)")
	fs.Float64Var(&f.crash, "crash", 0, "fault injection: per-node per-round crash-stop probability in [0,1]")
	fs.Uint64Var(&f.faultSeed, "faultseed", 1, "fault stream seed, independent of -seed (needs -drop or -crash)")
	return f
}

// EngineName returns the -engine value as given.
func (f *EngineFlags) EngineName() string { return f.engine }

// Resolve checks the parsed flags and returns the engine, with workers
// sizing its pool when it has one, plus the overlay carrying the forced
// plane and the fault plan. batch reports whether the CLI's -batch path is
// on. Every error names the offending flag.
func (f *EngineFlags) Resolve(workers int, batch bool) (local.Engine, local.Overlay, error) {
	eng, err := local.ParseEngine(f.engine, workers)
	if err != nil {
		return nil, local.Overlay{}, fmt.Errorf("-engine: %w", err)
	}
	plane, err := local.ParsePlane(f.plane)
	if err != nil {
		return nil, local.Overlay{}, fmt.Errorf("-plane: %w", err)
	}
	for _, knob := range []struct {
		name string
		fp   local.FaultPlan
	}{
		{"drop", local.FaultPlan{Drop: f.drop}},
		{"delay", local.FaultPlan{Delay: f.delay}},
		{"crash", local.FaultPlan{Crash: f.crash}},
	} {
		if err := knob.fp.Validate(); err != nil {
			return nil, local.Overlay{}, fmt.Errorf("-%s: %w", knob.name, err)
		}
	}
	ov := local.Overlay{Plane: plane, Faults: local.FaultPlan{Seed: f.faultSeed, Drop: f.drop, Delay: f.delay, Crash: f.crash}}
	if !ov.Faults.Active() {
		set := map[string]bool{}
		f.fs.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
		for _, knob := range []string{"delay", "faultseed"} {
			if set[knob] {
				return nil, local.Overlay{}, fmt.Errorf("-%s only modulates an active fault plan; add -drop or -crash", knob)
			}
		}
		ov.Faults = local.FaultPlan{}
	}
	if batch && plane != local.PlaneAuto {
		return nil, local.Overlay{}, fmt.Errorf("-plane=%s cannot be combined with -batch: the batched trials run through BatchRun directly and would ignore the forced plane", plane)
	}
	if batch && ov.Faults.Active() {
		return nil, local.Overlay{}, fmt.Errorf("-drop/-crash cannot be combined with -batch: the batched trials run through BatchRun directly and would ignore the fault plan")
	}
	return eng, ov, nil
}
