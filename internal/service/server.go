package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/prob"
)

// ErrQueueFull is Submit's backpressure signal: the bounded queue has no
// slot. The HTTP layer maps it to 429 with a retryable hint — the client
// should back off and resubmit, nothing is wrong with the spec.
var ErrQueueFull = errors.New("service: job queue full, retry later")

// ErrDraining rejects submissions during graceful shutdown.
var ErrDraining = errors.New("service: shutting down, not accepting jobs")

// Options tunes a Server.
type Options struct {
	// QueueCap bounds the number of queued (not yet running) jobs; <= 0
	// means 64. Submissions beyond it fail with ErrQueueFull.
	QueueCap int
	// Workers sizes the job worker pool; <= 0 means GOMAXPROCS.
	Workers int
	// CacheCap bounds the instance cache entries; <= 0 means 64.
	CacheCap int
}

// Server owns the job queue, the worker pool and the instance cache. Create
// one with New, stop it with Drain (graceful) or Close (immediate).
type Server struct {
	queueCap int
	workers  int

	ctx    context.Context // parent of every job context; Close/Drain-expiry cancels it
	cancel context.CancelFunc

	queue chan *job
	wg    sync.WaitGroup
	cache *instanceCache

	mu       sync.Mutex
	draining bool
	nextID   int
	jobs     map[string]*job

	// Counters and a bounded queue-wait sample ring for Stats.
	submitted, rejected int64
	done, failed        int64
	cancelled           int64
	waits               []time.Duration
	waitPos             int
}

// job is the internal job record; all mutable fields are guarded by the
// server mutex.
type job struct {
	id     string
	spec   SweepSpec
	state  State
	err    string
	trials []experiments.TrialResult
	acct   Accounting

	submitted time.Time
	cancel    context.CancelFunc
	ctx       context.Context
}

const waitSamples = 4096

// New starts a server: opts.Workers goroutines consuming the job queue.
func New(opts Options) *Server {
	if opts.QueueCap <= 0 {
		opts.QueueCap = 64
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		queueCap: opts.QueueCap,
		workers:  opts.Workers,
		ctx:      ctx,
		cancel:   cancel,
		queue:    make(chan *job, opts.QueueCap),
		cache:    newInstanceCache(opts.CacheCap),
		jobs:     make(map[string]*job),
		waits:    make([]time.Duration, 0, waitSamples),
	}
	for w := 0; w < s.workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Submit validates and enqueues a sweep. It never blocks: a full queue
// fails fast with ErrQueueFull (retryable), a draining server with
// ErrDraining, an invalid spec with the validation error.
func (s *Server) Submit(spec SweepSpec) (JobStatus, error) {
	if err := spec.Validate(); err != nil {
		return JobStatus{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.rejected++
		return JobStatus{}, ErrDraining
	}
	s.nextID++
	jctx, jcancel := context.WithCancel(s.ctx)
	j := &job{
		id:        fmt.Sprintf("sweep-%d", s.nextID),
		spec:      spec,
		state:     StateQueued,
		submitted: time.Now(),
		ctx:       jctx,
		cancel:    jcancel,
	}
	select {
	case s.queue <- j:
	default:
		s.nextID--
		s.rejected++
		jcancel()
		return JobStatus{}, ErrQueueFull
	}
	s.jobs[j.id] = j
	s.submitted++
	return j.statusLocked(), nil
}

// Get returns the status snapshot of a job.
func (s *Server) Get(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return j.statusLocked(), true
}

// Cancel requests cancellation of a queued or running job: queued jobs
// retire without running a trial, running jobs stop at their next LOCAL
// round boundary. Cancelling a terminal job is a no-op. The returned status
// is the snapshot at call time — poll Get for the terminal state.
func (s *Server) Cancel(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	if !j.state.Terminal() {
		j.cancel()
	}
	return j.statusLocked(), true
}

// List returns a status snapshot of every job, newest submission first.
func (s *Server) List() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j.statusLocked())
	}
	// IDs are "sweep-N": a longer ID is a larger N, so (length, lexical)
	// descending is newest-first without parsing.
	sort.Slice(out, func(i, k int) bool {
		a, b := out[i].ID, out[k].ID
		if len(a) != len(b) {
			return len(a) > len(b)
		}
		return a > b
	})
	return out
}

// Stats is the server-level ledger the /readyz and benchmark surfaces read.
type Stats struct {
	Submitted int64 `json:"submitted"`
	Rejected  int64 `json:"rejected"`
	Done      int64 `json:"done"`
	Failed    int64 `json:"failed"`
	Cancelled int64 `json:"cancelled"`
	// QueueDepth is the current number of queued-not-running jobs.
	QueueDepth  int   `json:"queue_depth"`
	QueueCap    int   `json:"queue_cap"`
	Workers     int   `json:"workers"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	CacheSize   int   `json:"cache_size"`
	// Queue-wait percentiles over a bounded recent-sample window.
	QueueWaitP50MS int64 `json:"queue_wait_p50_ms"`
	QueueWaitP99MS int64 `json:"queue_wait_p99_ms"`
	// Draining reports graceful shutdown in progress (readyz turns 503).
	Draining bool `json:"draining"`
}

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	hits, misses, size := s.cache.stats()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Submitted: s.submitted, Rejected: s.rejected,
		Done: s.done, Failed: s.failed, Cancelled: s.cancelled,
		QueueDepth: len(s.queue), QueueCap: s.queueCap, Workers: s.workers,
		CacheHits: hits, CacheMisses: misses, CacheSize: size,
		Draining: s.draining,
	}
	if n := len(s.waits); n > 0 {
		sorted := make([]time.Duration, n)
		copy(sorted, s.waits)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		st.QueueWaitP50MS = durMS(sorted[n/2])
		st.QueueWaitP99MS = durMS(sorted[min(n-1, n*99/100)])
	}
	return st
}

// Drain stops accepting jobs and waits for the queue and the running jobs
// to finish. If ctx expires first, every remaining job is cancelled (they
// observe it at round boundaries and retire as cancelled) and Drain still
// waits for the workers to exit, so after it returns no worker goroutine is
// left. Safe to call once; Close after Drain is a no-op.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	if !already {
		close(s.queue)
	}
	s.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		s.cancel()
		<-finished
		return fmt.Errorf("service: drain deadline expired, jobs cancelled: %w", ctx.Err())
	}
}

// Close cancels everything immediately and waits for the workers: Drain
// with an already-expired deadline.
func (s *Server) Close() {
	s.cancel()
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	//lint:checked Close is the forced path; the drain error only reports what the caller asked for
	_ = s.Drain(expired)
}

// worker consumes jobs until the queue is closed and drained.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one job: per-seed cache-backed instance builds fanned
// through the experiment grid under the job's control context.
func (s *Server) runJob(j *job) {
	start := time.Now()
	wait := start.Sub(j.submitted)

	s.mu.Lock()
	if len(s.waits) < waitSamples {
		s.waits = append(s.waits, wait)
	} else {
		s.waits[s.waitPos] = wait
		s.waitPos = (s.waitPos + 1) % waitSamples
	}
	j.acct.QueueWaitMS = durMS(wait)
	cancelled := j.ctx.Err() != nil
	if !cancelled {
		j.state = StateRunning
	}
	s.mu.Unlock()

	var trials []experiments.TrialResult
	var rounds, msgs int64
	if !cancelled {
		trials, rounds, msgs = s.runSweep(j)
	}

	s.mu.Lock()
	j.trials = trials
	j.acct.WallMS = durMS(time.Since(start))
	j.acct.Rounds = rounds
	j.acct.Messages = msgs
	switch {
	case j.ctx.Err() != nil:
		j.state = StateCancelled
		j.err = local.ErrCancelled.Error()
		s.cancelled++
	case anyFailed(trials):
		j.state = StateFailed
		j.err = firstError(trials)
		s.failed++
	default:
		j.state = StateDone
		s.done++
	}
	s.mu.Unlock()
	j.cancel() // release the job context's resources
}

// runSweep fans the job's (algorithm, seed) cells through the trial grid,
// one grid per seed so each seed's instance comes out of the shared cache.
func (s *Server) runSweep(j *job) (trials []experiments.TrialResult, rounds, msgs int64) {
	spec := j.spec
	algos := make([]experiments.AlgoSpec, 0, len(spec.Algos))
	for _, name := range spec.Algos {
		as, ok := experiments.AlgoSpecFor(name)
		if !ok { // Validate checked already; defend anyway
			continue
		}
		algos = append(algos, as)
	}
	eng := &countingEngine{e: local.SequentialEngine{}}
	ctl := &local.RunControl{Ctx: j.ctx}
	for t := 0; t < spec.trials(); t++ {
		seed := spec.Seed + uint64(t)
		key := cacheKey(spec, seed)
		b, err := s.cache.get(key, s.cache.buildFor(spec, seed))
		grid := experiments.Grid{
			Graphs: []experiments.GraphSpec{{
				Name: spec.Gen,
				Build: func(*prob.Source) (*graph.Bipartite, error) {
					// The shared cached instance (immutable);
					// build failures surface per cell like any build error.
					return b, err
				},
				Fixed: true,
			}},
			Algos:        algos,
			Seeds:        []uint64{seed},
			Engine:       eng,
			Workers:      1,
			Control:      ctl,
			TrialTimeout: time.Duration(spec.TrialTimeoutMS) * time.Millisecond,
			Retries:      spec.Retries,
		}
		trials = append(trials, grid.Run()...)
		if j.ctx.Err() != nil {
			break
		}
	}
	return trials, eng.rounds.Load(), eng.msgs.Load()
}

func anyFailed(trials []experiments.TrialResult) bool {
	for _, tr := range trials {
		if tr.Err != "" || !tr.Valid {
			return true
		}
	}
	return false
}

func firstError(trials []experiments.TrialResult) string {
	for _, tr := range trials {
		if tr.Err != "" {
			return tr.Err
		}
		if !tr.Valid {
			return fmt.Sprintf("%s/%s/seed %d: invalid splitting", tr.Graph, tr.Algo, tr.Seed)
		}
	}
	return ""
}

// statusLocked snapshots the job; the server mutex must be held.
func (j *job) statusLocked() JobStatus {
	st := JobStatus{
		ID:         j.id,
		State:      j.state,
		Spec:       j.spec,
		Error:      j.err,
		Accounting: j.acct,
	}
	if j.state.Terminal() {
		st.Trials = j.trials
	}
	return st
}
