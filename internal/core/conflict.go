package core

import (
	"fmt"

	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/local"
)

// simulationBudget caps the edge·round product for which the conflict-graph
// coloring is executed as a real message-passing simulation (the per-round
// cost of the engine is Θ(m) for inbox scanning); beyond it the centralized
// greedy coloring stands in, with rounds accounted by the same formula the
// simulation would charge (the palette bound Δ+1 is identical).
const simulationBudget = 50_000_000

// ConflictColoring produces a proper coloring of the conflict graph
// VPower(k) of b (B² for k = 1, B⁴ for k = 2) for SLOCAL compilation, used
// by Lemma 2.1, Theorems 3.2/3.3 and Theorem 5.2. It returns the colors, the
// palette size, and charges the LOCAL rounds to the trace (scaled by
// hopFactor, the cost of simulating one power-graph round on the original
// network).
//
// The conflict graph is materialized only for the simulation. When
// VPowerBound already keeps the work within simulationBudget, it is built
// and measured directly. Otherwise one walk of its implicit rows both
// colors it greedily and measures it exactly: the decision, the palette and
// the trace note read the exact figures, and the rare graph whose bound
// overshoots but whose work fits is built after all and simulated, the
// greedy colors discarded.
func ConflictColoring(b *graph.Bipartite, k int, eng local.Engine, trace *Trace, name string, hopFactor int) ([]int, int, error) {
	n := b.NV()
	var conflict *graph.Graph
	var greedy *coloring.Result
	var arcs, maxDeg int
	boundArcs, boundDeg := b.VPowerBound(k)
	if conflictWork(n, boundArcs, coloring.EstimateRounds(n, boundDeg)) <= simulationBudget {
		conflict = b.VPower(k)
		arcs, maxDeg = 2*conflict.M(), conflict.MaxDeg()
	} else {
		rows := &measuredRows{Rows: b.PowerRows(k)}
		greedy = coloring.Greedy(rows, boundDeg)
		arcs, maxDeg = rows.arcs, rows.maxDeg
	}
	est := coloring.EstimateRounds(n, maxDeg)
	if conflictWork(n, arcs, est) <= simulationBudget {
		if conflict == nil {
			conflict = b.VPower(k)
		}
		res, err := coloring.DeltaPlusOne(conflict, eng, local.Options{})
		if err != nil {
			return nil, 0, fmt.Errorf("core: %s coloring: %w", name, err)
		}
		trace.Add(name, res.Stats.Rounds*hopFactor)
		return res.Colors, res.Num, nil
	}
	if greedy == nil {
		greedy = coloring.GreedySequential(conflict)
	}
	trace.Add(name, est*hopFactor)
	trace.Note("%s: centralized greedy coloring stood in for the simulation (n=%d, m=%d, est rounds=%d); palette %d ≤ Δ+1=%d",
		name, n, arcs/2, est, greedy.Num, maxDeg+1)
	return greedy.Colors, maxDeg + 1, nil
}

// conflictWork is the edge·round product of simulating est rounds of the
// coloring on a conflict graph with n nodes and the given directed arcs.
func conflictWork(n, arcs, est int) int64 { return int64(arcs+n) * int64(est) }

// measuredRows passes rows through while totalling their lengths, so the
// greedy's one walk of an implicit conflict graph also measures it.
type measuredRows struct {
	coloring.Rows
	arcs, maxDeg int
}

// Neighbors implements coloring.Rows.
func (m *measuredRows) Neighbors(v int) []int32 {
	row := m.Rows.Neighbors(v)
	m.arcs += len(row)
	m.maxDeg = max(m.maxDeg, len(row))
	return row
}
