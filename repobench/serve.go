package main

// The wsplitd-open workload: the sweep service under open-loop traffic. One
// generator submits, on a seeded Poisson schedule, into an in-process
// service.Server with one worker per CPU, and polls Server.Get until each
// job is terminal. Latency runs from the job's due time (not from when the
// generator got round to it) to the terminal state Get first shows. The mix:
//
//   - mostly `trivial` on the fixed star and tree instances: cache hits;
//   - some `rand` on per-seed leftregular 2000×8000 d=16 with seeds from a
//     small pool, so the cache sees hits and misses;
//   - an occasional `det` on 1000×4000 d=32, a heavy job that holds a
//     worker while the FIFO queue behind it waits.
//
// The HTTP mux of cmd/wsplitd is package main and is not measured.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"time"

	"repro/internal/prob"
	"repro/internal/service"
)

// jobKind is one entry of the traffic mix.
type jobKind struct {
	name   string
	weight float64
	spec   service.SweepSpec
	seeds  int // distinct instance seeds (0: fixed instance, any seed)
}

type serveParams struct {
	mix     []jobKind
	workers int
	// queueCap is far above wsplitd's default of 64, so a stall of the
	// shared machine shows as latency rather than as rejected submits.
	queueCap    int
	rate        float64 // offered jobs/s of the fixed-rate phase
	ladder      []float64
	limitMS     float64       // p99 latency limit of the capacity ladder
	backlogMax  int           // unfinished jobs beyond which a ladder step has failed
	poll        time.Duration // Get interval of the open-loop phases
	satPoll     time.Duration // Get interval of the saturated phase
	setupReps   int
	refSamples  int     // reference loop runs at each pause between phases
	fixedShare  float64 // shares of the run's seconds per phase
	satShare    float64
	ladderShare float64
}

var serveDefaults = serveParams{
	mix: []jobKind{
		{name: "trivial-star", weight: 0.45, spec: service.SweepSpec{Gen: "star", D: 24, Algos: []string{"trivial"}}},
		{name: "trivial-tree", weight: 0.40, spec: service.SweepSpec{Gen: "tree", D: 16, Algos: []string{"trivial"}}},
		{name: "rand", weight: 0.13, seeds: 16, spec: service.SweepSpec{Gen: "leftregular", NU: 2000, NV: 8000, D: 16, Algos: []string{"rand"}}},
		{name: "det", weight: 0.02, seeds: 4, spec: service.SweepSpec{Gen: "leftregular", NU: 1000, NV: 4000, D: 32, Algos: []string{"det"}}},
	},
	workers:     runtime.GOMAXPROCS(0),
	queueCap:    1024,
	rate:        120,
	ladder:      []float64{150, 200, 250, 300, 350},
	limitMS:     250,
	backlogMax:  32,
	poll:        200 * time.Microsecond,
	satPoll:     10 * time.Millisecond,
	setupReps:   9,
	refSamples:  4,
	fixedShare:  0.35,
	satShare:    0.5,
	ladderShare: 0.15,
}

// arrival is one scheduled job.
type arrival struct {
	at   time.Duration // offset from the phase start
	spec service.SweepSpec
}

// schedule draws a Poisson arrival sequence at rate jobs/s for d. The job
// kinds come from successive mix blocks, so every phase holds each kind in
// nearly exact proportion and its tail does not hinge on how many heavy
// jobs the draw happened to give it.
func schedule(rng *rand.Rand, mix []jobKind, rate float64, d time.Duration) []arrival {
	var out, block []arrival
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			return out
		}
		if len(block) == 0 {
			block = mixBlock(rng, mix)
		}
		a := block[0]
		block = block[1:]
		a.at = time.Duration(t * float64(time.Second))
		out = append(out, a)
	}
}

// withSeed returns the kind's spec with an instance seed: one of a small
// pool for per-seed instances, any seed for fixed ones.
func (k jobKind) withSeed(rng *rand.Rand) service.SweepSpec {
	spec := k.spec
	if k.seeds > 0 {
		spec.Seed = 1 + rng.Uint64N(uint64(k.seeds))
	} else {
		spec.Seed = rng.Uint64()
	}
	return spec
}

// jobRec is what the generator saw of one job.
type jobRec struct {
	due         time.Time
	submitStart time.Time
	submitEnd   time.Time
	seen        time.Time // first Get showing a terminal state
	id          string
	status      service.JobStatus
	err         error // Submit's error
	span        int   // the live service.submit span (traced phase)
}

func (j *jobRec) latencyMS() float64 { return ms(j.seen.Sub(j.due)) }

// phaseOut summarizes one open-loop phase.
type phaseOut struct {
	jobs       []*jobRec
	maxQueued  int
	backlogged bool // more than backlogMax jobs were unfinished; submission stopped
	wall       time.Duration
}

// openLoop submits the schedule on time and polls until every submitted job
// is terminal. With stopAt > 0 it stops submitting once more than stopAt
// jobs are unfinished at once (a ladder step whose backlog grows).
func openLoop(s *service.Server, sched []arrival, poll time.Duration, stopAt int, rec *recorder) phaseOut {
	var out phaseOut
	var pending []*jobRec
	start := time.Now()
	next := 0
	for next < len(sched) || len(pending) > 0 {
		now := time.Now()
		for next < len(sched) && !out.backlogged && !start.Add(sched[next].at).After(now) {
			if stopAt > 0 && len(pending) > stopAt {
				out.backlogged = true
				break
			}
			a := sched[next]
			next++
			j := &jobRec{due: start.Add(a.at), submitStart: time.Now()}
			j.span = rec.begin("service.submit", 0, -1) // grouped when filed
			st, err := s.Submit(a.spec)
			rec.end(j.span)
			j.submitEnd = time.Now()
			j.id, j.err = st.ID, err
			out.jobs = append(out.jobs, j)
			if err == nil {
				pending = append(pending, j)
			}
		}
		if out.backlogged {
			next = len(sched)
		}
		var queued int
		pending, queued = pollJobs(s, pending)
		if queued > out.maxQueued {
			out.maxQueued = queued
		}
		wake := time.Now().Add(poll)
		if next < len(sched) {
			if due := start.Add(sched[next].at); due.Before(wake) {
				wake = due
			}
		}
		time.Sleep(time.Until(wake))
	}
	out.wall = time.Since(start)
	return out
}

// pollJobs asks the server for every pending job, records the ones now
// terminal, and returns the rest and how many of them are still queued.
func pollJobs(s *service.Server, pending []*jobRec) (kept []*jobRec, queued int) {
	kept = pending[:0]
	for _, j := range pending {
		st, ok := s.Get(j.id)
		switch {
		case !ok:
			j.err = fmt.Errorf("job %s vanished", j.id)
		case st.State.Terminal():
			j.seen = time.Now()
			j.status = st
		default:
			if st.State == service.StateQueued {
				queued++
			}
			kept = append(kept, j)
		}
	}
	return kept, queued
}

// checkJobs counts every job and fails the run on a rejected submit, a job
// that did not end done, or a trial that is not a valid splitting.
func checkJobs(res *result, jobs []*jobRec) {
	for _, j := range jobs {
		res.attempt()
		switch {
		case j.err != nil:
			res.fail("wsplitd-open: submit or poll: %v", j.err)
		case j.status.State != service.StateDone:
			res.fail("wsplitd-open %s: state %s (%s)", j.id, j.status.State, j.status.Error)
		case len(j.status.Trials) == 0:
			res.fail("wsplitd-open %s: done without trials", j.id)
		default:
			for _, t := range j.status.Trials {
				if t.Err != "" || !t.Valid {
					res.fail("wsplitd-open %s seed %d: valid=%t err=%q", j.id, t.Seed, t.Valid, t.Err)
				}
			}
		}
	}
}

func latencies(jobs []*jobRec) []float64 {
	out := make([]float64, 0, len(jobs))
	for _, j := range jobs {
		if j.err == nil {
			out = append(out, j.latencyMS())
		}
	}
	return out
}

// tailQuantile is the highest of p99, p95 and p90 that leaves at least ten
// samples above it, so a tail figure never rests on a handful of jobs.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.99, 0.95, 0.9} {
		if float64(n)*(1-q) >= 10 {
			return q
		}
	}
	return 0.9
}

func serveWorkload(cfg config, res *result, p serveParams) error {
	rng := prob.NewSource(cfg.seed).Rand()
	baseline := runtime.NumGoroutine()

	setups, err := probeSetup(res, "wsplitd-open", cfg.seed, p.setupReps)
	if err != nil {
		return err
	}
	res.set("setup_s", "s", median(setups))

	s := service.New(service.Options{Workers: p.workers, QueueCap: p.queueCap})
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	fixedFor := time.Duration(cfg.seconds * p.fixedShare * float64(time.Second))

	// The reference loop runs between phases, when the workers are idle.
	ref := newRefLoop()
	ref.samples(p.refSamples)

	// Fixed offered rate: latency percentiles.
	var fixed, traced phaseOut
	if !cfg.trace {
		fixed = openLoop(s, schedule(rng, p.mix, p.rate, fixedFor), p.poll, 0, nil)
		checkJobs(res, fixed.jobs)
	} else {
		// A warm-up block, then plain and traced blocks in ABBA order, so
		// both kinds see the same cache state and the same drift. Submit is
		// timed into spans as it happens; the other job spans are filed
		// after the phase from what the generator saw and the server
		// accounted.
		block := fixedFor / 5
		warm := openLoop(s, schedule(rng, p.mix, p.rate, block), p.poll, 0, nil)
		checkJobs(res, warm.jobs)
		for _, withSpans := range []bool{false, true, true, false} {
			into, r := &fixed, (*recorder)(nil)
			if withSpans {
				into, r = &traced, rec
			}
			out := openLoop(s, schedule(rng, p.mix, p.rate, block), p.poll, 0, r)
			checkJobs(res, out.jobs)
			into.jobs = append(into.jobs, out.jobs...)
			into.maxQueued = max(into.maxQueued, out.maxQueued)
		}
		for i, j := range traced.jobs {
			fileJobSpans(rec, int64(i), j)
		}
	}
	lat := latencies(fixed.jobs)
	q := tailQuantile(len(lat))
	res.set("job_p50_ms", "ms", median(lat))
	res.set("job_p99_ms", "ms", quantile(lat, q))
	res.set("job_tail_quantile", "ratio", q)
	res.set("jobs_at_fixed_rate", "count", float64(len(lat)))

	ref.samples(p.refSamples)

	// Saturation: the queue never runs dry, so both workers always have
	// work; completed jobs per second is the service's throughput.
	satFor := time.Duration(cfg.seconds * p.satShare * float64(time.Second))
	cpu0 := cpuTime()
	sat, err := saturate(s, rng, p, satFor)
	if err != nil {
		return err
	}
	checkJobs(res, sat.jobs)
	satCPU := ms(cpuTime()-cpu0) / float64(len(sat.jobs))
	res.set("throughput_per_s", "1/s", float64(len(sat.jobs))/sat.wall.Seconds())
	ref.samples(p.refSamples)

	// Capacity ladder: the highest offered rate whose tail latency meets
	// the limit without the queue backing up.
	stepFor := time.Duration(cfg.seconds * p.ladderShare / float64(len(p.ladder)) * float64(time.Second))
	capacity := 0.0
	for _, rate := range p.ladder {
		step := openLoop(s, schedule(rng, p.mix, rate, stepFor), p.poll, p.backlogMax, nil)
		checkJobs(res, step.jobs)
		sl := latencies(step.jobs)
		if step.backlogged || quantile(sl, tailQuantile(len(sl))) > p.limitMS {
			break
		}
		capacity = rate
	}
	res.set("capacity_jobs_per_s", "jobs/s", capacity)
	ref.samples(p.refSamples)
	ref.report(res, satCPU, ms(sat.wall)/float64(len(sat.jobs)))

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		return err
	}
	if !cfg.trace {
		return nil
	}
	stats := s.Stats()
	res.set("service.rejected", "count", float64(stats.Rejected))
	if lookups := stats.CacheHits + stats.CacheMisses; lookups > 0 {
		res.set("service.cache_hit_rate", "ratio", float64(stats.CacheHits)/float64(lookups))
	}
	res.set("service.queue_depth_max", "count", float64(max(fixed.maxQueued, traced.maxQueued)))
	tl := latencies(traced.jobs)
	res.set("traced_job_p50_ms", "ms", median(tl))
	res.set("trace.overhead_frac", "ratio", median(tl)/median(lat)-1)
	var submit, wait, wall, lag []float64
	for _, j := range traced.jobs {
		submit = append(submit, float64(j.submitEnd.Sub(j.submitStart))/float64(time.Microsecond))
		lag = append(lag, ms(j.submitStart.Sub(j.due)))
		wait = append(wait, float64(j.status.Accounting.QueueWaitMS))
		wall = append(wall, float64(j.status.Accounting.WallMS))
	}
	tq := tailQuantile(len(traced.jobs))
	res.set("service.submit_us.p50", "us", median(submit))
	res.set("service.submit_us.p99", "us", quantile(submit, tq))
	res.set("service.queue_wait_ms.p50", "ms", median(wait))
	res.set("service.queue_wait_ms.p99", "ms", quantile(wait, tq))
	res.set("service.job_wall_ms.p50", "ms", median(wall))
	res.set("service.job_wall_ms.p99", "ms", quantile(wall, tq))
	res.set("service.gen_lag_ms", "ms", quantile(lag, tq))

	// What the drained server still holds: the benchmark's own job records
	// are dead by now, so the heap left is the server's (it keeps every
	// terminal job) plus the runtime's.
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	res.set("service.heap_after_drain_mb", "MB", float64(m.HeapInuse)/(1<<20))
	res.set("service.goroutines_after_drain", "count", float64(runtime.NumGoroutine()-baseline))
	runtime.KeepAlive(s)
	return finishTrace(cfg, rec, "wsplitd-open")
}

// saturate keeps backlogMax jobs unfinished, so the workers never idle,
// submitting whole blocks of the mix — each block holds
// every job kind in exact proportion, in seeded order — for at least d, and
// returns the completed jobs. Whole blocks keep the work per measured job
// the same from run to run.
func saturate(s *service.Server, rng *rand.Rand, p serveParams, d time.Duration) (phaseOut, error) {
	var out phaseOut
	var pending []*jobRec
	var block []arrival
	start := time.Now()
	for {
		if len(block) == 0 && time.Since(start) < d {
			block = mixBlock(rng, p.mix)
		}
		for len(block) > 0 && len(pending) < p.backlogMax {
			a := block[0]
			block = block[1:]
			j := &jobRec{due: time.Now(), submitStart: time.Now()}
			st, err := s.Submit(a.spec)
			j.submitEnd = time.Now()
			if errors.Is(err, service.ErrQueueFull) {
				return out, fmt.Errorf("saturation phase overfilled the queue: %w", err)
			}
			j.id, j.err = st.ID, err
			out.jobs = append(out.jobs, j)
			if err == nil {
				pending = append(pending, j)
			}
		}
		if len(block) == 0 && len(pending) == 0 && time.Since(start) >= d {
			break
		}
		pending, _ = pollJobs(s, pending)
		// Only completions matter here, not their exact times: poll slowly
		// so the generator's own CPU time stays a small part of the
		// measured CPU per job. The backlog holds far more than one poll
		// interval of work, so the workers do not idle in between.
		time.Sleep(p.satPoll)
	}
	out.wall = time.Since(start)
	return out, nil
}

// mixBlock returns one block of blockSize jobs with each kind's share
// rounded to whole jobs, shuffled.
func mixBlock(rng *rand.Rand, mix []jobKind) []arrival {
	const blockSize = 100
	var block []arrival
	for _, k := range mix {
		for n := int(math.Round(k.weight * blockSize)); n > 0; n-- {
			block = append(block, arrival{spec: k.withSeed(rng)})
		}
	}
	rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
	return block
}

// fileJobSpans records one job's spans: the job from due time to terminal,
// with the live Submit span and the queue wait and execution the server
// accounted (derived intervals, laid end to end after the submit) as its
// children.
func fileJobSpans(rec *recorder, group int64, j *jobRec) {
	if j.err != nil {
		return
	}
	root := rec.add(span{Name: "service.job", Group: group, Parent: -1, Start: rec.at(j.due), End: rec.at(j.seen), Count: 1, Busy: int64(j.seen.Sub(j.due))})
	rec.adopt(j.span, root)
	waitD := time.Duration(j.status.Accounting.QueueWaitMS) * time.Millisecond
	wallD := time.Duration(j.status.Accounting.WallMS) * time.Millisecond
	w0 := rec.at(j.submitEnd)
	rec.add(span{Name: "service.queue_wait", Group: group, Parent: root, Start: w0, End: w0 + int64(waitD), Count: 1, Busy: int64(waitD)})
	rec.add(span{Name: "service.run", Group: group, Parent: root, Start: w0 + int64(waitD), End: w0 + int64(waitD+wallD), Count: 1, Busy: int64(wallD)})
}
