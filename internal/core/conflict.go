package core

import (
	"fmt"

	"repro/internal/coloring"
	"repro/internal/graph"
	"repro/internal/local"
)

// simulationBudget caps the edge·round product for which the conflict-graph
// coloring is executed as a real message-passing simulation; beyond it the
// centralized greedy coloring stands in, with rounds accounted by the same
// formula the simulation would charge (the palette bound Δ+1 is identical).
// The product is an upper bound on the simulation's work: a Linial round
// touches every arc, but in a Kuhn–Wattenhofer round only the nodes that
// recolor or hear a new color run (the rest sleep, see local.WordSleeper),
// so the round costs a scan of the active set plus their arcs. The value
// stays as it is because it decides which path runs, and with it the trace
// notes.
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
// greedy colors discarded. For B² the walk reads only each row's part below
// its variable, all the index-order greedy reads (see lowerRows).
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
		greedy, arcs, maxDeg = greedyMeasured(b, k, boundDeg)
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

// greedyMeasured colors VPower(k) of b greedily from its implicit rows and
// returns the colors with the power graph's exact directed arcs and maximum
// degree, measured by the same walk. maxDeg bounds every row's length.
func greedyMeasured(b *graph.Bipartite, k, maxDeg int) (*coloring.Result, int, int) {
	if k != 1 {
		rows := &measuredRows{Rows: b.PowerRows(k)}
		return coloring.Greedy(rows, maxDeg), rows.arcs, rows.maxDeg
	}
	rows := &lowerRows{rows: b.PowerRows(1), deg: make([]int32, b.NV())}
	greedy := coloring.Greedy(rows, maxDeg)
	exact := 0
	for _, d := range rows.deg {
		exact = max(exact, int(d))
	}
	return greedy, rows.arcs, exact
}

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

// lowerRows hands the greedy the part of each B² row below its variable,
// the only neighbours an index-order greedy reads. Every B² edge is listed
// once, in the row of its higher endpoint, so counting it in both
// endpoints' degrees gives B²'s exact degrees and twice its edges.
type lowerRows struct {
	rows *graph.PowerRows
	deg  []int32
	arcs int
}

// N implements coloring.Rows.
func (l *lowerRows) N() int { return l.rows.N() }

// Neighbors implements coloring.Rows with the lower part of row s only.
func (l *lowerRows) Neighbors(s int) []int32 {
	row := l.rows.Below(s)
	l.deg[s] += int32(len(row))
	for _, w := range row {
		l.deg[w]++
	}
	l.arcs += 2 * len(row)
	return row
}
