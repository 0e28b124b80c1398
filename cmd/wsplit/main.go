// Command wsplit solves weak splitting instances from the command line:
// generate a random instance (or read one from a file) and run a chosen
// algorithm from the paper, printing the verification verdict and the
// simulated LOCAL round breakdown.
//
// Usage:
//
//	wsplit -gen biregular -nu 128 -nv 512 -d 12 -algo rand
//	wsplit -graph instance.txt -algo det
//	wsplit -graph web-Stanford.csr -algo det
//	wsplit -gen leftregular -algo det,rand -trials 8 -workers 4 -format csv
//
// -graph reads the instance from a file instead of generating one (-in is a
// kept-for-compatibility alias). Three formats are auto-detected: a binary
// CSR snapshot (written by csrpack or ExportSnapshot; a graph snapshot is
// converted through the Section 1.2 splitting-instance encoding), a
// SNAP-style edge list (first non-blank line starts with '#' or '%'), and
// the instance text format — a header line "nu nv" followed by one "u v"
// edge per line (0-based indices; u is a constraint, v a variable).
// Combining -graph with an explicitly set -gen, -nu, -nv or -d is rejected:
// the file fixes the instance, so those generator knobs would be silently
// ignored.
//
// -engine selects the LOCAL simulation engine (seq|pool; batch is a
// synonym for pool); engines are observationally identical, so it only
// changes wall-clock time. With -engine=pool or -engine=batch, -workers
// also sizes the engine's
// worker pool; passing -workers with any other engine outside a sweep is an
// error rather than silently ignored.
//
// -plane pins the message-plane representation (auto|boxed|word|bit) the
// engine uses; planes are observationally identical, so this is the knob
// for plane ablations. Forcing a plane the chosen algorithm's programs
// cannot take fails loudly instead of silently falling back, and -plane
// with -batch is rejected (the batched solvers do not route through the
// plane-forced engine).
//
// -tune sets the engines' cache-tuning knobs — scatter prefetch and fused
// broadcast scatter — as a comma-separated list of "noprefetch",
// "prefetch=N" and "nofuse" tokens. Knobs change wall-clock time only;
// results are bit-identical. The batched solvers of -batch run with
// default knobs.
//
// With -trials N > 1 (or several comma-separated algorithms), wsplit fans
// the (algorithm, seed) grid over a bounded worker pool — seeds seed,
// seed+1, ..., seed+N-1 — and reports one line per trial in a fixed order
// regardless of scheduling. -format text|csv|json selects the report shape.
//
// -batch routes a sweep through the batched multi-seed trial path: the
// instance is built once and shared by all seeds, and algorithms with a
// batched solver (currently "trivial") run every seed in one pass. Trial
// results are bit-identical to an unbatched sweep. It requires a
// seed-independent instance (-gen tree|star or -graph FILE) and a sweep; any
// other combination is rejected.
//
// -drop, -delay, -crash and -faultseed inject deterministic faults (message
// drops, bounded redelivery delay, crash-stop failures) into every LOCAL
// phase of the run, keyed by -faultseed independently of -seed; the same
// plan replays bit-identically on every engine, plane and worker count.
// The paper's solvers self-check, so under faults expect failed runs — the
// point of the knob is to observe exactly how they fail (the splitbench
// experiment EF grades degradation systematically). -delay and -faultseed
// only modulate an active plan, so they require -drop or -crash; -batch
// rejects fault flags (the batched solvers run through BatchRun directly
// and would ignore the fault-wrapped engine).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/check"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/prob"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		gen     = flag.String("gen", "leftregular", "generator: leftregular|biregular|powerlaw|tree|star|girth10")
		graphF  = flag.String("graph", "", "read the instance from this file (CSR snapshot, SNAP edge list, or instance text) instead of generating")
		in      = flag.String("in", "", "alias of -graph (kept for compatibility)")
		nu      = flag.Int("nu", 64, "number of constraint (left) nodes")
		nv      = flag.Int("nv", 128, "number of variable (right) nodes")
		d       = flag.Int("d", 16, "left degree")
		algo    = flag.String("algo", "det", "comma-separated algorithms: det|rand|sixr|trivial|ref|hg-det|hg-rand")
		seed    = flag.Uint64("seed", 1, "randomness seed (first seed of a -trials sweep)")
		engine  = flag.String("engine", "seq", "LOCAL engine: seq|pool|batch (boxed programs always run on seq)")
		plane   = flag.String("plane", "auto", "message plane: auto|boxed|word|bit (forced planes fail loudly on incapable algorithms)")
		tuneF   = flag.String("tune", "", "cache tuning knobs: noprefetch|prefetch=N|nofuse, comma-separated (default: all mechanisms on)")
		workers = flag.Int("workers", 0, "trial/engine pool size (0 = GOMAXPROCS)")
		trials  = flag.Int("trials", 1, "number of seeds to sweep (seed..seed+N-1)")
		format  = flag.String("format", "text", "trial report format: text|csv|json")
		batch   = flag.Bool("batch", false, "run the sweep through the batched multi-seed trial path (needs -gen tree|star or -graph)")
		drop    = flag.Float64("drop", 0, "fault injection: per-message drop probability in [0,1]")
		delay   = flag.Int("delay", 0, "fault injection: dropped messages are redelivered up to N rounds late instead of lost (needs -drop)")
		crash   = flag.Float64("crash", 0, "fault injection: per-node per-round crash-stop probability in [0,1]")
		fseed   = flag.Uint64("faultseed", 1, "fault stream seed, independent of -seed (needs -drop or -crash)")
	)
	flag.Parse()
	setFlags := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })

	// -in is an alias of -graph; merge them before validation so the rest of
	// the program sees a single instance-file path.
	if *in != "" {
		if *graphF != "" && *graphF != *in {
			fmt.Fprintf(os.Stderr, "wsplit: -graph %s and -in %s name different files; -in is an alias of -graph, pass one\n", *graphF, *in)
			return 2
		}
		*graphF = *in
	}

	eng, err := local.ParseEngine(*engine, *workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wsplit: %v\n", err)
		return 2
	}
	pl, err := local.ParsePlane(*plane)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wsplit: %v\n", err)
		return 2
	}
	eng = local.ForcePlane(eng, pl)
	tn, err := local.ParseTuning(*tuneF)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wsplit: %v\n", err)
		return 2
	}
	eng = local.ForceTuning(eng, tn)
	algos := strings.Split(*algo, ",")
	for i, a := range algos {
		algos[i] = strings.TrimSpace(a)
	}
	// Anything beyond a single text-mode run goes through the sweep harness,
	// so -format behaves identically with and without -trials.
	sweep := *trials > 1 || len(algos) > 1 || *format != "text"
	faults := local.FaultPlan{Seed: *fseed, Drop: *drop, Delay: *delay, Crash: *crash}
	if err := validateFlags(setFlags, sweep, *engine, *gen, *graphF, *batch, pl, faults); err != nil {
		fmt.Fprintf(os.Stderr, "wsplit: %v\n", err)
		return 2
	}
	eng = local.ForceFaults(eng, faults)
	// First SIGINT/SIGTERM cancels at the next LOCAL round boundary — a
	// sweep still prints the rows it finished and exits nonzero — and a
	// second one hard-kills (exit 130).
	ctx, release := cliutil.InterruptContext()
	defer release()
	if sweep {
		return runSweep(*gen, *graphF, *nu, *nv, *d, algos, *seed, *trials, *workers, *format, eng, *batch, ctx)
	}
	eng = local.ForceControl(eng, ctx)

	src := prob.NewSource(*seed)
	b, err := buildInstance(*gen, *graphF, *nu, *nv, *d, src)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wsplit: %v\n", err)
		return 2
	}
	fmt.Printf("instance: |U|=%d |V|=%d m=%d δ=%d Δ=%d r=%d\n",
		b.NU(), b.NV(), b.M(), b.MinDegU(), b.MaxDegU(), b.Rank())

	res, err := solve(algos[0], b, src.Fork(1), eng)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wsplit: %v\n", err)
		return 1
	}
	if err := check.WeakSplit(b, res.Colors, 0); err != nil {
		fmt.Fprintf(os.Stderr, "wsplit: INVALID OUTPUT: %v\n", err)
		return 1
	}
	red := 0
	for _, c := range res.Colors {
		if c == core.Red {
			red++
		}
	}
	fmt.Printf("valid weak splitting: %d red / %d blue variables\n", red, len(res.Colors)-red)
	fmt.Printf("simulated LOCAL rounds: %d\n", res.Trace.Rounds())
	for _, p := range res.Trace.Phases {
		fmt.Printf("  %-40s %6d rounds\n", p.Name, p.Rounds)
	}
	for _, n := range res.Trace.Notes {
		fmt.Printf("  note: %s\n", n)
	}
	return 0
}

// fixedInstance reports whether the chosen instance source is
// seed-independent — every seed of a sweep yields the same graph — which is
// what makes a sweep eligible for the batched trial path.
func fixedInstance(gen, in string) bool { return experiments.FixedInstance(gen, in) }

// validateFlags rejects flag combinations that would otherwise be silently
// ignored: -workers with an engine that has no worker pool outside a sweep
// (inside one, it sizes the trial pool), generator knobs alongside -graph
// (the file fixes the instance), -batch without a sweep or with an instance
// that is rebuilt per seed, and -plane with -batch (the batched solvers run
// through BatchRun directly and would ignore the forced plane).
func validateFlags(set map[string]bool, sweep bool, engine, gen, in string, batch bool, plane local.Plane, faults local.FaultPlan) error {
	if set["workers"] && !sweep && !local.EngineUsesWorkers(engine) {
		return fmt.Errorf("-workers is ignored with -engine=%s on a single run; use -engine=pool|batch or a multi-trial sweep", engine)
	}
	if err := faults.Validate(); err != nil {
		return err
	}
	if !faults.Active() {
		for _, knob := range []string{"delay", "faultseed"} {
			if set[knob] {
				return fmt.Errorf("-%s only modulates an active fault plan; add -drop or -crash", knob)
			}
		}
	}
	if in != "" {
		for _, knob := range []string{"gen", "nu", "nv", "d"} {
			if set[knob] {
				return fmt.Errorf("-%s is ignored when the instance comes from a file; drop -%s or drop -graph/-in", knob, knob)
			}
		}
	}
	if batch {
		if !sweep {
			return fmt.Errorf("-batch is ignored on a single run; add -trials N, several -algo entries, or -format csv|json")
		}
		if !fixedInstance(gen, in) {
			return fmt.Errorf("-batch needs a seed-independent instance shared by all trials; -gen %s rebuilds per seed (use -gen tree|star or -graph FILE)", gen)
		}
		if plane != local.PlaneAuto {
			return fmt.Errorf("-plane=%s cannot be combined with -batch: batched solvers would ignore the forced plane", plane)
		}
		if faults.Active() {
			return fmt.Errorf("-drop/-crash cannot be combined with -batch: batched solvers would ignore the fault-wrapped engine")
		}
	}
	return nil
}

// runSweep fans the (algorithm, seed) grid across the experiment harness's
// worker pool and reports one row per trial in deterministic order.
func runSweep(gen, in string, nu, nv, d int, algos []string, seed uint64, trials, workers int, format string, eng local.Engine, batch bool, ctx context.Context) int {
	if trials < 1 {
		trials = 1
	}
	switch format {
	case "text", "csv", "json":
	default:
		fmt.Fprintf(os.Stderr, "wsplit: unknown format %q (have text, csv, json)\n", format)
		return 2
	}
	var algoSpecs []experiments.AlgoSpec
	for _, name := range algos {
		spec, ok := experiments.AlgoSpecFor(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "wsplit: unknown algorithm %q\n", name)
			return 2
		}
		algoSpecs = append(algoSpecs, spec)
	}
	seeds := make([]uint64, trials)
	for i := range seeds {
		seeds[i] = seed + uint64(i)
	}
	graphName := gen
	if in != "" {
		graphName = in
	}
	grid := experiments.Grid{
		Graphs: []experiments.GraphSpec{{
			Name: graphName,
			Build: func(src *prob.Source) (*graph.Bipartite, error) {
				return buildInstance(gen, in, nu, nv, d, src)
			},
			Fixed: fixedInstance(gen, in),
		}},
		Algos:   algoSpecs,
		Seeds:   seeds,
		Engine:  eng,
		Workers: workers,
		Batch:   batch,
		Control: &local.RunControl{Ctx: ctx},
	}
	results := grid.Run()
	failed := 0
	for _, tr := range results {
		if tr.Err != "" || !tr.Valid {
			failed++
		}
	}
	switch format {
	case "text":
		fmt.Printf("%-12s %-8s %8s %8s %6s %6s %6s %s\n",
			"graph", "algo", "seed", "rounds", "red", "blue", "valid", "elapsed")
		for _, tr := range results {
			if tr.Err != "" {
				fmt.Printf("%-12s %-8s %8d %s\n", tr.Graph, tr.Algo, tr.Seed, "ERROR: "+tr.Err)
				continue
			}
			fmt.Printf("%-12s %-8s %8d %8d %6d %6d %6t %s\n",
				tr.Graph, tr.Algo, tr.Seed, tr.Rounds, tr.Red, tr.Blue, tr.Valid, tr.Elapsed.Round(1000))
		}
		fmt.Printf("%d/%d trials valid\n", len(results)-failed, len(results))
	case "csv":
		fmt.Print(experiments.TrialsCSV(results))
	case "json":
		out, err := experiments.TrialsJSON(results)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wsplit: %v\n", err)
			return 1
		}
		fmt.Println(string(out))
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// buildInstance, fixedInstance, knownAlgo and solve delegate to the shared
// registry in internal/experiments, which wsplitd reads too — a new
// generator or algorithm is added there, in exactly one place.
func buildInstance(gen, in string, nu, nv, d int, src *prob.Source) (*graph.Bipartite, error) {
	return experiments.BuildInstance(gen, in, nu, nv, d, src)
}

func knownAlgo(algo string) bool { return experiments.KnownAlgo(algo) }

func solve(algo string, b *graph.Bipartite, src *prob.Source, eng local.Engine) (*core.Result, error) {
	return experiments.Solve(algo, b, src, eng)
}
