package local

// Overlay is the set of run-wide settings a CLI or harness imposes on every
// run of an engine: a forced message plane, a fault plan and a run control.
// Algorithms are handed the overlaid engine and every LOCAL phase they run
// inherits the settings, wherever the engine travels.
//
// A zero field imposes nothing: PlaneAuto keeps the caller's plane, an
// inactive plan the caller's faults, a nil Control (or one with a nil
// context) the caller's control.
type Overlay struct {
	// Plane, when not PlaneAuto, replaces Options.Plane on every run;
	// programs that cannot take it fail loudly instead of falling back.
	Plane Plane
	// Faults, when active, replaces Options.Faults on every run.
	Faults FaultPlan
	// Control governs every run alongside Options.Control: either one
	// firing ends the run.
	Control *RunControl
}

// On returns e with the overlay applied: e itself for a zero overlay, and
// otherwise one wrapper. Overlaying an overlaid engine merges into that
// engine's wrapper rather than stacking a second one: the outer non-zero
// Plane and Faults win, and the outer and inner controls both stay live.
func (o Overlay) On(e Engine) Engine {
	if o.Control != nil && o.Control.Ctx == nil && o.Control.outer == nil {
		o.Control = nil
	}
	if in, ok := e.(overlaid); ok {
		e = in.e
		if o.Plane == PlaneAuto {
			o.Plane = in.o.Plane
		}
		if !o.Faults.Active() {
			o.Faults = in.o.Faults
		}
		o.Control = in.o.Control.under(o.Control)
	}
	if o.Plane == PlaneAuto && !o.Faults.Active() && o.Control == nil {
		return e
	}
	return overlaid{e: e, o: o}
}

type overlaid struct {
	e Engine
	o Overlay
}

// Run implements Engine.
func (oe overlaid) Run(t *Topology, f Factory, opts Options) (Stats, error) {
	if oe.o.Plane != PlaneAuto {
		opts.Plane = oe.o.Plane
	}
	if oe.o.Faults.Active() {
		fp := oe.o.Faults
		opts.Faults = &fp
	}
	opts.Control = opts.Control.under(oe.o.Control)
	return oe.e.Run(t, f, opts)
}
