// Command repobench is the repository's benchmark: it runs one named
// workload for a fixed time, checks every output, and prints the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run)
// as one JSON object on the last line of standard output.
//
// Every layer is measured from outside, by timing the benchmark's own calls
// into the public functions of internal/graph, local, coloring, slocal,
// derand, core, check, experiments and service; no production file knows
// it is being measured.
//
// Usage, from the repository root (repobench/run.sh builds and runs it):
//
//	repobench -workload sim-1m|sweep|wsplitd-open -seed N -seconds S -trace 0|1
//
// The benchmark also starts copies of itself as set-up probes
// (repobench setup-probe <workload> <seed>; see probe.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one benchmark workload: a set of generated inputs and the
// calls that exercise them.
type workload struct {
	name string
	run  func(cfg config, res *result) error
}

var workloads = []workload{
	{"sim-1m", func(c config, r *result) error { return simWorkload(c, r, simDefaults) }},
	{"sweep", func(c config, r *result) error { return sweepWorkload(c, r, sweepDefaults) }},
	{"wsplitd-open", func(c config, r *result) error { return serveWorkload(c, r, serveDefaults) }},
}

// config is what every workload receives from the command line.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	tmpDir  string // scratch space inside the checkout (snapshots, traces)
	out     io.Writer
}

// deadline is when the measured phase of a run ends.
func (c config) deadline(start time.Time) time.Time {
	return start.Add(time.Duration(c.seconds * float64(time.Second)))
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == probeArg {
		os.Exit(probeMain(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "workload to run (sim-1m, sweep, wsplitd-open)")
		seed    = flag.Uint64("seed", 1, "seed of every generator and of the arrival schedule")
		seconds = flag.Float64("seconds", 30, "length of the measured phase")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
		tmpDir  = flag.String("tmpdir", ".bench_build/tmp", "scratch directory for snapshots and span dumps")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "repobench: -trace must be 0 or 1, got %d\n", *trace)
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "repobench: -seconds must be positive, got %v\n", *seconds)
		os.Exit(2)
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(os.Stderr, "repobench: unknown workload %q (have sim-1m, sweep, wsplitd-open)\n", *name)
		os.Exit(2)
	}
	if err := os.MkdirAll(*tmpDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "repobench: %v\n", err)
		os.Exit(1)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, tmpDir: *tmpDir, out: os.Stdout}
	if res := execute(wl.run, cfg); !res.correct() {
		os.Exit(1)
	}
}

// execute runs one workload and prints its figures and result line.
func execute(run func(config, *result) error, cfg config) *result {
	res := newResult(cfg.trace)
	gc0 := readGC()
	err := run(cfg, res)
	gc := readGC().since(gc0)
	res.set("gc.cpu_frac", "ratio", gc.cpuFrac)
	res.set("gc.cycles", "count", gc.cycles)
	if rss, rerr := peakRSSMB(); rerr != nil {
		res.fail("peak RSS: %v", rerr)
	} else {
		res.set("peak_rss_mb", "MB", rss)
	}
	if err != nil {
		res.fail("%v", err)
	}
	res.complete()
	res.print(cfg.out)
	return res
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result collects the checks and figures of one run.
type result struct {
	traced    bool
	attempted int
	failures  []string
	metrics   map[string]metric // the declared set of the run, after complete
	summary   map[string]metric // every other figure, after complete
}

func newResult(traced bool) *result {
	return &result{traced: traced, metrics: map[string]metric{}, summary: map[string]metric{}}
}

// attempt counts one checked operation (trial, job, sub-run).
func (r *result) attempt() { r.attempted++ }

// fail records one failed or invalid operation.
func (r *result) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(os.Stderr, "repobench: FAIL:", msg)
	r.failures = append(r.failures, msg)
}

func (r *result) correct() bool { return len(r.failures) == 0 }

// set records a figure. The run's JSON line carries the declared metrics of
// its kind (end-to-end untraced, per-layer traced); every other figure is
// printed above it for people.
func (r *result) set(name, unit string, v float64) { r.metrics[name] = metric{v, unit} }

// print writes the human-readable table and then the JSON result line.
func (r *result) print(w io.Writer) {
	if r.attempted < 1 {
		r.attempted = 1
		if r.correct() {
			r.fail("no operation was attempted")
		}
	}
	failed := len(r.failures)
	if failed > r.attempted {
		failed = r.attempted
	}
	r.summary["failed_frac"] = metric{float64(failed) / float64(r.attempted), "ratio"}
	for _, group := range []map[string]metric{r.summary, r.metrics} {
		names := make([]string, 0, len(group))
		for n := range group {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "%-34s %16.6g %s\n", n, group[n].Value, group[n].Unit)
		}
	}
	metrics := r.metrics
	if !r.correct() {
		// A failed run reports no figures: they would describe wrong outputs.
		metrics = map[string]metric{}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, failed, metrics})
	if err != nil {
		panic(err) // only finite floats and strings are marshalled
	}
	fmt.Fprintln(w, string(line))
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	var kb float64
	for _, line := range strings.Split(string(data), "\n") {
		if n, _ := fmt.Sscanf(line, "VmHWM: %f kB", &kb); n == 1 {
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// settle runs a collection so one phase's garbage does not bill the next.
func settle() { runtime.GC() }
