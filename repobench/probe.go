package main

// Set-up time on sweep and wsplitd-open is time to ready in a fresh
// process. The benchmark starts a copy of itself in probe mode,
//
//	repobench setup-probe <workload> <seed>
//
// which does the least work after which the workload is ready and exits;
// the parent times the child from start to exit, runtime start-up, first
// page faults and cold caches included.

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"

	"repro/internal/prob"
	"repro/internal/service"
)

// probeArg is the first argument of a probe child.
const probeArg = "setup-probe"

// probeSetup starts reps probe children one after another and returns
// their wall times in seconds. Each child counts as one attempted
// operation; one that fails its checks fails the run.
func probeSetup(res *result, workload string, seed uint64, reps int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < reps; i++ {
		cmd := exec.Command(exe, probeArg, workload, strconv.FormatUint(seed+uint64(1+i)*7919, 10))
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		err := cmd.Run()
		d := time.Since(t0)
		res.attempt()
		if err != nil {
			res.fail("%s set-up probe %d: %v", workload, i, err)
			continue
		}
		out = append(out, d.Seconds())
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no set-up probe succeeded", workload)
	}
	return out, nil
}

// probeMain runs a probe child with the arguments after probeArg and
// returns its exit code: 0 ready with every output checked, 1 a failed
// check, 2 bad arguments.
func probeMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintf(os.Stderr, "repobench: usage: repobench %s <workload> <seed>\n", probeArg)
		return 2
	}
	seed, err := strconv.ParseUint(args[1], 10, 64)
	if err != nil {
		fmt.Fprintf(os.Stderr, "repobench: bad probe seed: %v\n", err)
		return 2
	}
	res := newResult(false)
	switch args[0] {
	case "sweep":
		sweepReady(res, seed, sweepDefaults)
	case "wsplitd-open":
		err = serveReady(res, seed, serveDefaults)
	default:
		fmt.Fprintf(os.Stderr, "repobench: no set-up probe for workload %q\n", args[0])
		return 2
	}
	if err != nil {
		res.fail("%v", err)
	}
	if !res.correct() {
		return 1
	}
	return 0
}

// sweepReady is sweep's time to ready: one verified trial of each
// algorithm, as a researcher's first wsplit run gets it.
func sweepReady(res *result, seed uint64, p sweepParams) {
	for gi, g := range p.grids {
		out := runGrid(g, gridSeeds(seed, gi, 1), p.workers, nil)
		checkTrials(res, g.algo, out.trials)
	}
}

// serveReady is wsplitd-open's time to ready: a server started and its
// first job of every kind in the mix served, each on an instance the empty
// cache has to build — a cold server until it has run every path its
// traffic takes. Drain returns when the workers have finished, so no
// polling delay enters the figure.
func serveReady(res *result, seed uint64, p serveParams) error {
	rng := prob.NewSource(seed).Rand()
	s := service.New(service.Options{Workers: p.workers, QueueCap: p.queueCap})
	var jobs []*jobRec
	for _, k := range p.mix {
		st, err := s.Submit(k.withSeed(rng))
		jobs = append(jobs, &jobRec{id: st.ID, err: err})
	}
	if err := s.Drain(context.Background()); err != nil {
		return err
	}
	for _, j := range jobs {
		if j.err == nil {
			j.status, _ = s.Get(j.id)
		}
	}
	checkJobs(res, jobs)
	return nil
}
