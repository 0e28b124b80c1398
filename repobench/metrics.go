package main

import "math"

// The declared metric set. BENCHMARK.json at the repository root lists the
// same names and units (a test keeps the two in step). Every run reports
// every metric of its kind: an end-to-end metric every workload measures,
// or a per-layer metric that is 0 on a workload that never calls the layer.

// declared is one metric name and its unit.
type declared struct{ name, unit string }

// endToEnd are the metrics of the untraced run, the same on every
// workload: time to ready; the wall-clock time and the process CPU time one
// unit of the workload's work costs, each divided by the same figure of the
// reference loop run in the same process (see refLoop); and peak resident
// memory. A unit of work is the geometric mean over the workload's parts:
// sim-1m, a round of each sub-run; sweep, a det and a rand trial;
// wsplitd-open, a job with the workers saturated.
var endToEnd = []declared{
	{"setup_s", "s"},
	{"wall_per_op_rel", "ratio"},
	{"cpu_per_op_rel", "ratio"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of the traced run.
var perLayer = []declared{
	// Workload-level figures, also printed by name on untraced runs.
	{"cpu_ms_per_op", "ms"},
	{"wall_ms_per_op", "ms"},
	{"ref_loop_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"bit_rounds_per_s", "rounds/s"},
	{"batch_trial_rounds_per_s", "trial-rounds/s"},
	{"tail_rounds_per_s", "rounds/s"},
	{"color_rounds_per_s", "rounds/s"},
	{"det_trials_per_s", "trials/s"},
	{"rand_trials_per_s", "trials/s"},
	{"job_p50_ms", "ms"},
	{"job_p99_ms", "ms"},
	{"capacity_jobs_per_s", "jobs/s"},
	// graph
	{"graph.snapshot_load_ms", "ms"},
	{"graph.generate_ms", "ms"},
	{"graph.vpower_ms", "ms"},
	{"graph.normalize_ms", "ms"},
	{"graph.residual_ms", "ms"},
	// local
	{"local.topology_ms", "ms"},
	{"local.bit.setup_ms", "ms"},
	{"local.bit.round_ms", "ms"},
	{"local.bit.allocs_per_round", "count"},
	{"local.bit.messages", "count"},
	{"local.batch.setup_ms", "ms"},
	{"local.batch.round_ms", "ms"},
	{"local.batch.allocs_per_round", "count"},
	{"local.batch.messages", "count"},
	{"local.tail.setup_ms", "ms"},
	{"local.tail.round_ms", "ms"},
	{"local.tail.allocs_per_round", "count"},
	{"local.tail.messages", "count"},
	{"local.color.setup_ms", "ms"},
	{"local.color.round_ms", "ms"},
	{"local.color.allocs_per_round", "count"},
	{"local.color.messages", "count"},
	{"local.runs", "count"},
	{"local.busy_share", "ratio"},
	// coloring, slocal/derand
	{"coloring.greedy_ms", "ms"},
	{"slocal.compile_ms", "ms"},
	// core
	{"core.det.solve_ms", "ms"},
	{"core.rand.solve_ms", "ms"},
	{"core.det.self_ms", "ms"},
	{"core.rand.self_ms", "ms"},
	{"core.shatter_ms", "ms"},
	{"core.sim_rounds", "count"},
	// check, experiments
	{"check.verify_ms", "ms"},
	{"experiments.worker_idle_frac", "ratio"},
	// service
	{"service.submit_us.p50", "us"},
	{"service.submit_us.p99", "us"},
	{"service.queue_wait_ms.p50", "ms"},
	{"service.queue_wait_ms.p99", "ms"},
	{"service.job_wall_ms.p50", "ms"},
	{"service.job_wall_ms.p99", "ms"},
	{"service.cache_hit_rate", "ratio"},
	{"service.rejected", "count"},
	{"service.queue_depth_max", "count"},
	{"service.heap_after_drain_mb", "MB"},
	{"service.goroutines_after_drain", "count"},
	{"service.gen_lag_ms", "ms"},
	// Go runtime, tracing
	{"gc.cpu_frac", "ratio"},
	{"gc.cycles", "count"},
	{"trace.overhead_frac", "ratio"},
}

// complete splits the figures: the declared metrics of the run's kind stay
// in metrics, everything else moves to summary. A declared per-layer metric
// the workload never touched reads 0; a missing or mislabelled end-to-end
// metric is a benchmark bug and fails the run.
func (r *result) complete() {
	want := endToEnd
	if r.traced {
		want = perLayer
	}
	all := r.metrics
	r.metrics = map[string]metric{}
	for _, d := range want {
		m, ok := all[d.name]
		delete(all, d.name)
		switch {
		case !ok && r.traced:
			m = metric{0, d.unit}
		case !ok:
			r.fail("end-to-end metric %s was not measured", d.name)
		case m.Unit != d.unit:
			r.fail("metric %s reported in %s, declared in %s", d.name, m.Unit, d.unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			r.fail("metric %s is %v", d.name, m.Value)
			m.Value = 0
		}
		r.metrics[d.name] = m
	}
	r.summary = all
}
