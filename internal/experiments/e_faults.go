package experiments

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/prob"
)

// EF sweeps the deterministic fault layer (drops, bounded delays,
// crash-stop) over a splitting probe and grades every run with the
// graceful-degradation classifier. The probe is deliberately not one of the
// paper's solvers — those self-check and refuse to return a faulty output —
// but a 3-round echo-commit splitter whose raw colors survive for grading:
//
//	round 1: variables draw a color uniformly and propose it to all ports;
//	round 2: constraints acknowledge exactly the ports whose proposal
//	         arrived;
//	round 3: variables with at least one acknowledged round trip commit
//	         their color; the rest abstain (Uncolored).
//
// A commit therefore needs one surviving proposal→ack round trip, so every
// fault mode is visible in the output: drops sever round trips, delays past
// the commit round are equivalent to losses (the receiver has terminated),
// and crash-stop leaves holes. The classifier then separates degraded
// coverage (holes, starved constraints) from shattered logic (a
// fully-reported constraint ending monochromatic).
type faultProbeNode struct {
	view  local.View
	in    probeInput
	color int
	out   *[]int
}

// probeInput marks which side of the bipartite instance a node simulates.
type probeInput struct {
	isConstraint bool
	index        int
}

// laneAck is the constraints' acknowledgement lane. Variable proposals use
// the zigzag IntLane encoding of {Red, Blue} = {0, 2}, so 3 is free.
const laneAck = 3

var _ local.Bit2Node = (*faultProbeNode)(nil)

// Bit2 implements local.Bit2Node.
func (p *faultProbeNode) Bit2() {}

// RoundB implements local.BitNode.
func (p *faultProbeNode) RoundB(r int, recv, send local.BitRow) bool {
	if p.in.isConstraint {
		if r == 2 {
			for q := 0; q < recv.Len(); q++ {
				if recv.Has(q) {
					send.Set(q, laneAck)
				}
			}
			return true
		}
		return false
	}
	switch r {
	case 1:
		if p.view.Rand.Uint64()&1 == 0 {
			p.color = check.Red
		} else {
			p.color = check.Blue
		}
		send.Broadcast(local.IntLane(p.color))
		return false
	case 2:
		return false
	default: // round 3: commit on any surviving round trip
		if recv.CountPresent() > 0 {
			(*p.out)[p.in.index] = p.color
		}
		return true
	}
}

// probeSetup prepares topology, inputs and IDs for the probe: variables get
// IDs 0..nv-1 (keying their randomness by V-index, engine-independent) and
// constraints nv..nv+nu-1.
func probeSetup(b *graph.Bipartite) (*local.Topology, []any, []int) {
	g := b.AsGraph()
	nu, nv := b.NU(), b.NV()
	inputs := make([]any, g.N())
	ids := make([]int, g.N())
	for u := 0; u < nu; u++ {
		inputs[u] = probeInput{isConstraint: true, index: u}
		ids[u] = nv + u
	}
	for v := 0; v < nv; v++ {
		inputs[nu+v] = probeInput{isConstraint: false, index: v}
		ids[nu+v] = v
	}
	return local.NewTopology(g), inputs, ids
}

// EF quantifies graceful degradation under the deterministic fault layer:
// validity rate versus drop probability, with delay and crash-stop rows.
func EF(cfg Config) (*Table, error) {
	if cfg.Overlay.Faults.Active() {
		return nil, fmt.Errorf("EF sweeps its own fault grid; run it without fault flags")
	}
	t := &Table{
		ID:       "EF",
		Title:    "Graceful degradation of an echo-commit splitting probe under injected faults",
		PaperRef: "model (§1): the paper assumes fault-free synchronous LOCAL",
		Claim:    "faults degrade coverage, not logic: abstentions and crash holes grow smoothly with the fault load while the surviving output stays consistent (degraded, never shattered), and every faulty run replays bit-identically from (seed, plan)",
		Header:   []string{"drop", "delay", "crash", "trials", "valid", "degraded", "shattered", "sat-frac", "uncolored/trial", "drops/trial", "crashes/trial"},
	}
	nu, nv, deg, trials := 200, 2000, 20, 24
	if cfg.Quick {
		nu, nv, deg, trials = 60, 600, 20, 8
	}
	src := prob.NewSource(cfg.seed() + 0xFA)
	b, err := graph.RandomBipartiteBiregular(nu, nv, deg, src.Fork(1).Rand())
	if err != nil {
		return nil, fmt.Errorf("EF: %w", err)
	}
	topo, inputs, ids := probeSetup(b)
	plans := []local.FaultPlan{
		{}, // fault-free baseline
		{Drop: 0.05},
		{Drop: 0.1},
		{Drop: 0.2},
		{Drop: 0.35},
		{Drop: 0.1, Delay: 2},
		{Crash: 0.01},
		{Drop: 0.1, Delay: 1, Crash: 0.005},
	}
	if cfg.Quick {
		plans = []local.FaultPlan{{}, {Drop: 0.1}, {Drop: 0.1, Delay: 2}, {Crash: 0.01}}
	}
	for pi, plan := range plans {
		var valid, degraded, shattered, uncolored int
		var satSum float64
		var dropped, crashed int64
		for trial := 0; trial < trials; trial++ {
			colors := make([]int, nv)
			for i := range colors {
				colors[i] = check.Uncolored
			}
			factory := func(v local.View) local.Node {
				return local.BitProgram(&faultProbeNode{view: v, in: v.Input.(probeInput), out: &colors})
			}
			opts := local.Options{
				Source:    src.Fork(uint64(100 + trial)),
				Inputs:    inputs,
				IDs:       ids,
				MaxRounds: 8,
			}
			if plan.Active() {
				fp := plan
				fp.Seed = cfg.seed() + uint64(pi)*1000 + uint64(trial)
				opts.Faults = &fp
			}
			stats, err := cfg.engine().Run(topo, factory, opts)
			if err != nil {
				return nil, fmt.Errorf("EF (drop %g, trial %d): %w", plan.Drop, trial, err)
			}
			d := check.WeakSplitDegradation(b, colors, 0)
			switch d.Outcome {
			case check.OutcomeValid:
				valid++
			case check.OutcomeDegraded:
				degraded++
			default:
				shattered++
			}
			satSum += d.SatisfiedFraction()
			uncolored += d.Uncolored
			dropped += stats.Dropped
			crashed += int64(stats.Crashed)
		}
		t.AddRow(ftoa(plan.Drop), itoa(plan.Delay), ftoa(plan.Crash), itoa(trials),
			itoa(valid), itoa(degraded), itoa(shattered),
			fmt.Sprintf("%.4f", satSum/float64(trials)),
			fmt.Sprintf("%.1f", float64(uncolored)/float64(trials)),
			fmt.Sprintf("%.1f", float64(dropped)/float64(trials)),
			fmt.Sprintf("%.2f", float64(crashed)/float64(trials)))
	}
	t.Note("probe commits a color only on a surviving proposal→ack round trip; abstentions and crash holes grade degraded, monochromatic fully-reported constraints grade shattered")
	t.Note("delayed messages arriving after the receiver committed count as losses — bounded delay shows up as extra degradation, not reordering")
	return t, nil
}
