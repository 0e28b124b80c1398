// Command splitbench regenerates the evaluation tables of the reproduction
// (EXPERIMENTS.md). Each experiment E1..E15 validates one theorem, lemma or
// figure of the paper; see DESIGN.md §3 for the per-experiment index.
//
// Usage:
//
//	splitbench [-experiment E1,E7,...] [-quick] [-seed N] [-batch]
//	           [-engine seq|pool|batch] [-plane auto|boxed|word|bit]
//	           [-workers N] [-format text|csv|json] [-graph FILE]
//	           [-cpuprofile FILE] [-memprofile FILE]
//	           [-blockprofile FILE] [-mutexprofile FILE]
//
// With no -experiment flag every experiment runs in order.
//
// -graph FILE runs the real-graph experiment EG on an instance loaded from
// FILE (CSR snapshot, SNAP edge list, or instance text — the same formats
// and auto-detection as wsplit -graph). With -graph and no -experiment the
// selection is just EG; selecting EG explicitly requires -graph, and -graph
// alongside a selection that omits EG is rejected rather than silently
// ignored. EG reuses the -engine/-plane/-seed plumbing like any other
// experiment.
//
// -cpuprofile and -memprofile write standard runtime/pprof profiles of the
// selected experiments (the CPU profile covers the whole run; the heap
// profile is taken after a final GC), so engine hot paths can be inspected
// with `go tool pprof` without writing a throwaway harness. -blockprofile
// and -mutexprofile additionally record goroutine blocking and mutex
// contention at full sampling rate — the pool engine's round barrier and
// unit handoff show up here, which is how scheduling stalls (as opposed to
// CPU burn) are attributed.
//
// -batch enables the batched-trial ablations of the batch-capable
// experiments (E14): multi-seed sweeps additionally run through the batched
// trial runner and are checked bit-identical against per-seed runs.
// Selecting only experiments that cannot honor -batch is an error rather
// than a silent no-op.
//
// # Running experiments in parallel
//
// Experiments are independent — each derives all of its randomness from its
// own (seed, experiment) pair — so they fan out across a bounded worker
// pool. -workers sets the experiment pool size only (0, the default, means
// GOMAXPROCS; 1 recovers the serial behavior); with -engine=pool the
// engine's own worker pool is sized by GOMAXPROCS, capped by the
// instance's size. Results are printed in
// experiment order no matter how the pool schedules them, and every table
// is bit-identical to a serial run.
//
// -engine, -plane, -drop, -delay, -crash and -faultseed are the LOCAL
// engine flags splitbench shares with wsplit; internal/cliutil.EngineFlags
// documents them once. They apply to every LOCAL simulation inside the
// selected experiments. The fault sweep experiment EF generates its own
// fault grid and rejects a fault plan.
//
// -format selects the output: "text" (default) prints aligned tables,
// "csv" prints one CSV block per experiment separated by "# id" comment
// lines, and "json" prints a single JSON array of table objects.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"repro/internal/cliutil"
	"repro/internal/experiments"
	"repro/internal/local"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		expFlag = flag.String("experiment", "", "comma-separated experiment ids (default: all)")
		quick   = flag.Bool("quick", false, "smaller instances and fewer trials")
		seed    = flag.Uint64("seed", 1, "randomness seed")
		workers = flag.Int("workers", 0, "experiment pool size (0 = GOMAXPROCS, 1 = serial)")
		format  = flag.String("format", "text", "output format: text|csv|json")
		batch   = flag.Bool("batch", false, "add the batched-trial ablations of batch-capable experiments (E14)")
		graphF  = flag.String("graph", "", "run experiment EG on the instance in this file (CSR snapshot, SNAP edge list, or instance text)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf = flag.String("memprofile", "", "write a heap profile (after a final GC) to this file")
		blkProf = flag.String("blockprofile", "", "write a goroutine blocking profile to this file")
		mtxProf = flag.String("mutexprofile", "", "write a mutex contention profile to this file")
		ef      = cliutil.NewEngineFlags(flag.CommandLine)
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "splitbench: -cpuprofile: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "splitbench: -cpuprofile: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "splitbench: -memprofile: %v\n", err)
			return 2
		}
		// Written on exit so the profile reflects the experiments' retained
		// heap, not the startup state.
		defer func() {
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "splitbench: -memprofile: %v\n", err)
			}
			f.Close()
		}()
	}

	// Blocking and contention are sampled at full rate for the whole run —
	// profiling runs trade a little throughput for complete barrier and
	// handoff attribution — and written on exit, like the heap profile.
	for _, pp := range []struct {
		path, name string
		enable     func()
	}{
		{*blkProf, "block", func() { runtime.SetBlockProfileRate(1) }},
		{*mtxProf, "mutex", func() { runtime.SetMutexProfileFraction(1) }},
	} {
		if pp.path == "" {
			continue
		}
		f, err := os.Create(pp.path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "splitbench: -%sprofile: %v\n", pp.name, err)
			return 2
		}
		pp.enable()
		name := pp.name
		defer func() {
			if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "splitbench: -%sprofile: %v\n", name, err)
			}
			f.Close()
		}()
	}

	eng, ov, err := ef.Resolve(0, *batch)
	if err != nil {
		fmt.Fprintf(os.Stderr, "splitbench: %v\n", err)
		return 2
	}
	switch *format {
	case "text", "csv", "json":
	default:
		fmt.Fprintf(os.Stderr, "splitbench: unknown format %q (have text, csv, json)\n", *format)
		return 2
	}

	registry := experiments.All()
	ids := experiments.IDs()
	if *expFlag != "" {
		ids = nil
		for _, id := range strings.Split(*expFlag, ",") {
			id = strings.TrimSpace(id)
			if _, ok := registry[id]; !ok {
				fmt.Fprintf(os.Stderr, "splitbench: unknown experiment %q (have EG, %s)\n",
					id, strings.Join(experiments.IDs(), ", "))
				return 2
			}
			ids = append(ids, id)
		}
	} else if *graphF != "" {
		// -graph with no explicit selection means "run the real-graph
		// experiment on this file".
		ids = []string{"EG"}
	}
	if selected := slices.Contains(ids, "EG"); selected != (*graphF != "") {
		if selected {
			fmt.Fprintf(os.Stderr, "splitbench: experiment EG needs an instance file; add -graph FILE\n")
		} else {
			fmt.Fprintf(os.Stderr, "splitbench: -graph is ignored by the selected experiments (%s); add EG to -experiment or drop -experiment\n",
				strings.Join(ids, ", "))
		}
		return 2
	}

	if ov.Faults.Active() && slices.Contains(ids, "EF") {
		fmt.Fprintf(os.Stderr, "splitbench: experiment EF sweeps its own fault grid; drop -drop/-crash or deselect EF\n")
		return 2
	}

	if *batch {
		any := false
		for _, id := range ids {
			if experiments.BatchCapable(id) {
				any = true
				break
			}
		}
		if !any {
			fmt.Fprintf(os.Stderr, "splitbench: -batch has no effect: none of the selected experiments (%s) is batch-capable\n",
				strings.Join(ids, ", "))
			return 2
		}
	}

	// First SIGINT/SIGTERM stops at the next round boundary: experiments not
	// yet started are skipped, finished tables still print, and the run
	// exits nonzero. A second signal hard-kills (exit 130).
	ctx, release := cliutil.InterruptContext()
	defer release()
	ov.Control = &local.RunControl{Ctx: ctx}
	cfg := experiments.Config{Quick: *quick, Seed: *seed, Engine: eng, Overlay: ov, Batch: *batch, GraphFile: *graphF}
	start := time.Now()
	results := experiments.RunParallel(ids, cfg, *workers)
	failed := 0
	tables := []json.RawMessage{}
	for _, res := range results {
		if res.Err != nil {
			fmt.Fprintf(os.Stderr, "splitbench: %s failed: %v\n", res.ID, res.Err)
			failed++
			continue
		}
		switch *format {
		case "text":
			fmt.Print(res.Table.Format())
			fmt.Printf("  elapsed: %s\n\n", res.Elapsed.Round(time.Millisecond))
		case "csv":
			fmt.Printf("# %s — %s\n%s\n", res.Table.ID, res.Table.Title, res.Table.CSV())
		case "json":
			raw, err := res.Table.JSON()
			if err != nil {
				fmt.Fprintf(os.Stderr, "splitbench: %s: %v\n", res.ID, err)
				failed++
				continue
			}
			tables = append(tables, raw)
		}
	}
	if *format == "json" {
		out, err := json.MarshalIndent(tables, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "splitbench: %v\n", err)
			return 1
		}
		fmt.Println(string(out))
	}
	if *format == "text" {
		effective := *workers
		if effective <= 0 {
			effective = runtime.GOMAXPROCS(0)
		}
		fmt.Printf("total: %d experiment(s) in %s (workers=%d, engine=%s)\n",
			len(results)-failed, time.Since(start).Round(time.Millisecond), effective, ef.EngineName())
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "splitbench: %d experiment(s) failed\n", failed)
		return 1
	}
	return 0
}
