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
// bit-identically — which both engines, one-trial batches, return as their
// run's error. Recovery happens on the cold exit path only; the
// steady-state round loops pay at most one deferred guard per unit.

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime/debug"

	"repro/internal/prob"
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
	// the boxed loop under both the batch-level control and its own.
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

// under returns a control that fires when outer or rc does, outer first.
// rc's own outer chain is kept, so controls layered any number of times all
// stay live; a nil side returns the other unchanged.
func (rc *RunControl) under(outer *RunControl) *RunControl {
	if outer == nil {
		return rc
	}
	if rc == nil {
		return outer
	}
	return &RunControl{Ctx: rc.Ctx, outer: rc.outer.under(outer)}
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

// buildNodes instantiates the per-node programs on the (possibly shared)
// view set, attaching each node's random stream from src (none when src is
// nil), and converts a factory panic into a *PanicError (round 0): a
// per-trial error in BatchRun, where sibling trials are untouched, and so
// the run's error on either engine.
func buildNodes(f Factory, vs viewSet, src *prob.Source) (nodes []Node, err error) {
	var rngs []*rand.Rand
	if src != nil {
		rngs = src.NodeStreams(vs.ids)
	}
	cur := -1
	defer func() {
		if p := recover(); p != nil {
			nodes, err = nil, newPanicError(cur, 0, p)
		}
	}()
	nodes = make([]Node, len(vs.ids))
	for v := range nodes {
		cur = v
		view := vs.view(v)
		if rngs != nil {
			view.Rand = rngs[v]
		}
		nodes[v] = f(view)
	}
	return nodes, nil
}
