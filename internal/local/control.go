package local

// This file implements run control: cooperative cancellation and deadlines
// for every execution path, plus panic isolation for node programs.
//
// Control follows the fault layer's zero-cost-when-off discipline: a run
// with no RunControl carries a nil pointer and the hot paths are untouched —
// golden traces and the zero-allocation pins are byte-identical to a build
// without this file. An active control is observed only at round
// boundaries, in the engines' single-threaded coordinator sections, before
// round r executes: a run cancelled between rounds k and k+1 has executed
// rounds 1..k bit-identically to an uncancelled run (the control suite pins
// this across every path and all three planes), returns partial Stats
// covering those rounds, and leaves the shared Topology untouched (engines
// never write it, control or not).
//
// Deadlines are carried by the context itself (context.WithTimeout /
// WithDeadline): the engines only poll ctx.Err(), so this package never
// reads the wall clock and stays inside the determinism discipline.
// Cancellation is mapped to ErrCancelled and a deadline expiry to
// ErrDeadline, both wrapping the context cause for errors.Is chains.
//
// Panic isolation converts a panic inside a node program (or its factory)
// into a *PanicError carrying the (node, round) coordinates and the stack:
// a per-trial error in BatchRun — sibling trials run to completion
// bit-identically — and an engine-level error on the sequential and pool
// paths. Recovery happens on the cold exit path only; the
// steady-state round loops pay at most one deferred guard per shard.

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
)

// ErrCancelled is returned (wrapped) by a run whose RunControl context was
// cancelled; the run's partial Stats cover the rounds that executed.
var ErrCancelled = errors.New("local: run cancelled")

// ErrDeadline is ErrCancelled's deadline twin: the control context expired.
var ErrDeadline = errors.New("local: run deadline exceeded")

// RunControl makes a run cancellable: engines poll the context at every
// round boundary and abort with ErrCancelled/ErrDeadline (wrapping the
// context's error) before executing the next round. nil — or a RunControl
// with a nil context — runs uncontrolled with the hot paths untouched.
//
// The deadline, if any, lives in the context (context.WithTimeout): the
// engines never read the clock themselves, so controlled runs stay inside
// the determinism discipline — a control that never fires perturbs nothing.
type RunControl struct {
	// Ctx is polled at round boundaries; its cancellation ends the run.
	Ctx context.Context
	// outer, when set, is polled before Ctx: a boxed BatchRun trial runs on
	// the sequential loop under both the batch-level control and its own.
	outer *RunControl
}

// Err returns nil while the run may continue, and the distinguished
// ErrCancelled/ErrDeadline (wrapping the context error) once the control
// context is done. Nil-safe: a nil control never fires.
func (rc *RunControl) Err() error {
	if rc == nil {
		return nil
	}
	if err := rc.outer.Err(); err != nil {
		return err
	}
	if rc.Ctx == nil {
		return nil
	}
	cerr := rc.Ctx.Err()
	if cerr == nil {
		return nil
	}
	if errors.Is(cerr, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrDeadline, cerr)
	}
	return fmt.Errorf("%w: %w", ErrCancelled, cerr)
}

// under returns a control that fires when outer or rc does, outer first;
// a nil outer returns rc unchanged.
func (rc *RunControl) under(outer *RunControl) *RunControl {
	if outer == nil {
		return rc
	}
	c := &RunControl{outer: outer}
	if rc != nil {
		c.Ctx = rc.Ctx
	}
	return c
}

// ForceControl wraps an engine so every run is governed by the given
// context, exactly as ForcePlane forces a plane and ForceFaults a fault
// plan: harness layers hand algorithms a control-wrapped engine and every
// LOCAL phase they run becomes cancellable. A nil context returns the
// engine unchanged.
func ForceControl(e Engine, ctx context.Context) Engine {
	if ctx == nil {
		return e
	}
	return controlEngine{e: e, ctx: ctx}
}

type controlEngine struct {
	e   Engine
	ctx context.Context
}

// Run implements Engine.
func (ce controlEngine) Run(t *Topology, f Factory, opts Options) (Stats, error) {
	opts.Control = &RunControl{Ctx: ce.ctx}
	return ce.e.Run(t, f, opts)
}

// PanicError is a node-program (or factory) panic converted into an error:
// the run that hit it fails with the panic's coordinates while the process
// — and, in a batch, the sibling trials — keeps running.
type PanicError struct {
	Node  int    // topology node index being executed; -1 outside any node
	Round int    // round being executed; 0 during setup
	Value any    // the recovered panic value
	Stack []byte // stack captured at the recovery site
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("local: node program panicked (node %d, round %d): %v", e.Node, e.Round, e.Value)
}

// newPanicError builds the error on the cold recovery path; capturing the
// stack here (not at panic time) still points into the unwound frames
// because recover runs before they are popped.
func newPanicError(node, round int, v any) *PanicError {
	return &PanicError{Node: node, Round: round, Value: v, Stack: debug.Stack()}
}

// buildNodes instantiates the per-node programs, converting a factory panic
// into an engine-level *PanicError (round 0). Shared by the sequential and
// pool engines; the batch runner guards its view-sharing setup loop
// separately.
func buildNodes(f Factory, vs []View) (nodes []Node, err error) {
	cur := -1
	defer func() {
		if p := recover(); p != nil {
			nodes, err = nil, newPanicError(cur, 0, p)
		}
	}()
	nodes = make([]Node, len(vs))
	for v := range vs {
		cur = v
		nodes[v] = f(vs[v])
	}
	return nodes, nil
}
