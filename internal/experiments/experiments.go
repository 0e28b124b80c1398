// Package experiments regenerates every evaluation artifact of the
// reproduction. The paper is pure theory, so its "tables and figures" are
// its theorems plus Figure 1; each experiment Ek validates one claim
// empirically and prints a table recorded in EXPERIMENTS.md. The
// per-experiment index lives in DESIGN.md §3.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/local"
)

// Config tunes an experiment run.
type Config struct {
	// Quick shrinks instance sizes and trial counts for CI-speed runs.
	Quick bool
	// Seed drives all randomness (default 1 if zero).
	Seed uint64
	// Engine executes the LOCAL simulation phases inside experiments
	// (nil = SequentialEngine). Engines are observationally identical, so
	// this changes wall-clock time only — WorkerPoolEngine pays off on the
	// larger instances.
	Engine local.Engine
	// Batch extends the batch-capable experiments (see BatchCapable) with
	// their batched-trial ablations: multi-seed sweeps run through
	// local.BatchRun and are checked bit-identical against per-seed runs.
	Batch bool
	// GraphFile names an instance file (CSR snapshot, SNAP edge list, or
	// instance text) for the real-graph experiment EG; the other experiments
	// generate their own instances and ignore it.
	GraphFile string
	// Overlay imposes run-wide settings on every LOCAL simulation the
	// experiment runs, on top of any the engine already carries:
	//   - Plane forces a message plane;
	//   - Faults injects a deterministic fault plan (drops, delays,
	//     crash-stop). Most solvers self-check and report failures as
	//     errors, so this is a stress knob; EF sweeps its own fault grid and
	//     rejects it;
	//   - Control makes the run cancellable: LOCAL phases observe it at round
	//     boundaries, and RunParallel skips experiments not yet started once
	//     it fires. A control that never fires perturbs nothing — tables are
	//     bit-identical with and without it.
	Overlay local.Overlay
}

// BatchCapable reports whether an experiment honors Config.Batch. CLIs use
// it to reject a -batch flag that would be silently ignored.
func BatchCapable(id string) bool {
	return id == "E14"
}

func (c Config) seed() uint64 {
	if c.Seed == 0 {
		return 1
	}
	return c.Seed
}

func (c Config) engine() local.Engine {
	eng := c.Engine
	if eng == nil {
		eng = local.SequentialEngine{}
	}
	return c.Overlay.On(eng)
}

// Table is one experiment's result.
type Table struct {
	ID       string
	Title    string
	PaperRef string
	Claim    string
	Header   []string
	Rows     [][]string
	Notes    []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Note appends a free-form note.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&sb, "  paper: %s\n  claim: %s\n", t.PaperRef, t.Claim)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		sb.WriteString("  ")
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "  note: %s\n", n)
	}
	return sb.String()
}

// Runner is one experiment entry point.
type Runner func(Config) (*Table, error)

// All returns the experiment registry keyed by id: E1..E15, EF (the
// fault-injection sweep) and EG, the real-graph experiment (EG needs
// Config.GraphFile, so IDs omits it from the default run order).
func All() map[string]Runner {
	return map[string]Runner{
		"EG":  EG,
		"EF":  EF,
		"E1":  E1,
		"E2":  E2,
		"E3":  E3,
		"E4":  E4,
		"E5":  E5,
		"E6":  E6,
		"E7":  E7,
		"E8":  E8,
		"E9":  E9,
		"E10": E10,
		"E11": E11,
		"E12": E12,
		"E13": E13,
		"E14": E14,
		"E15": E15,
	}
}

// IDs returns the self-contained experiment ids in order: EG is excluded
// because it cannot run without an instance file (splitbench -graph); EF
// generates its own instance and fault grid, so it is included.
func IDs() []string {
	ids := make([]string, 0, 16)
	for id := range All() {
		if id == "EG" {
			continue
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if len(ids[i]) != len(ids[j]) {
			return len(ids[i]) < len(ids[j])
		}
		return ids[i] < ids[j]
	})
	return ids
}

func itoa(v int) string     { return fmt.Sprintf("%d", v) }
func ftoa(v float64) string { return fmt.Sprintf("%.3g", v) }
func btoa(ok bool) string   { return map[bool]string{true: "yes", false: "NO"}[ok] }
