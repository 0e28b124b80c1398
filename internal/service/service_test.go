package service

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// smallSpec is a sweep that finishes in milliseconds.
func smallSpec(seed uint64) SweepSpec {
	return SweepSpec{Gen: "star", D: 16, Algos: []string{"trivial"}, Seed: seed, Trials: 2}
}

// longSpec is a sweep that runs long enough to observe mid-flight (and is
// ended by Cancel/Drain, never waited out).
func longSpec() SweepSpec {
	return SweepSpec{Gen: "leftregular", NU: 200, NV: 800, D: 16, Algos: []string{"det"}, Seed: 1, Trials: MaxTrials}
}

func waitTerminal(t *testing.T, s *Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := s.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	st, _ := s.Get(id)
	t.Fatalf("job %s stuck in state %s", id, st.State)
	return JobStatus{}
}

func waitRunning(t *testing.T, s *Server, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, _ := s.Get(id)
		if st.State == StateRunning {
			return
		}
		if st.State.Terminal() {
			t.Fatalf("job %s finished (%s) before it was observed running", id, st.State)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never started running", id)
}

// waitNoExtraGoroutines asserts the goroutine count returns to the baseline
// (draining deferred runtime bookkeeping with retries).
func waitNoExtraGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
		runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
}

func TestSubmitRunsJob(t *testing.T) {
	s := New(Options{QueueCap: 4, Workers: 2})
	defer s.Close()
	st, err := s.Submit(smallSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued {
		t.Fatalf("fresh job state = %s, want queued", st.State)
	}
	fin := waitTerminal(t, s, st.ID)
	if fin.State != StateDone {
		t.Fatalf("job state = %s (err %q), want done", fin.State, fin.Error)
	}
	if len(fin.Trials) != 2 {
		t.Fatalf("got %d trials, want 2", len(fin.Trials))
	}
	for _, tr := range fin.Trials {
		if tr.Err != "" || !tr.Valid {
			t.Fatalf("trial %+v not valid", tr)
		}
	}
	if fin.Accounting.Rounds <= 0 || fin.Accounting.WallMS < 0 {
		t.Fatalf("accounting not populated: %+v", fin.Accounting)
	}
}

func TestSubmitRejectsInvalidSpec(t *testing.T) {
	s := New(Options{QueueCap: 1, Workers: 1})
	defer s.Close()
	for _, spec := range []SweepSpec{
		{Gen: "nope", Algos: []string{"det"}},
		{Gen: "star", D: 8},
		{Gen: "star", D: 8, Algos: []string{"nope"}},
		{Gen: "leftregular", NU: MaxNodes + 1, NV: 4, D: 2, Algos: []string{"det"}},
		{Gen: "star", D: 8, Algos: []string{"trivial"}, Trials: MaxTrials + 1},
		{Gen: "star", D: 8, Algos: []string{"trivial"}, TrialTimeoutMS: -1},
		{Gen: "star", D: 8, Algos: []string{"trivial"}, Retries: -1},
		{Gen: "star", D: 8, Algos: []string{"trivial"}, TrialTimeoutMS: 1, Retries: MaxRetries + 1},
		{Gen: "star", D: 8, Algos: []string{"trivial"}, TrialTimeoutMS: 1, Retries: 2147483647},
	} {
		if _, err := s.Submit(spec); err == nil {
			t.Errorf("spec %+v was accepted", spec)
		}
	}
	if st := s.Stats(); st.Submitted != 0 {
		t.Fatalf("invalid specs counted as submitted: %+v", st)
	}
}

// TestQueueFullExactRejection pins the acceptance criterion: with capacity
// Q and the lone worker pinned by a running job, submitting 4Q more jobs
// accepts exactly Q and rejects the rest with the retryable ErrQueueFull.
func TestQueueFullExactRejection(t *testing.T) {
	const q = 8
	s := New(Options{QueueCap: q, Workers: 1})
	defer s.Close()

	blocker, err := s.Submit(longSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, blocker.ID)

	accepted, rejected := 0, 0
	for i := 0; i < 4*q; i++ {
		_, err := s.Submit(smallSpec(uint64(i)))
		switch {
		case err == nil:
			accepted++
		case errors.Is(err, ErrQueueFull):
			rejected++
		default:
			t.Fatalf("submission %d: unexpected error %v", i, err)
		}
	}
	if accepted != q || rejected != 3*q {
		t.Fatalf("accepted %d rejected %d, want exactly %d accepted and %d rejected", accepted, rejected, q, 3*q)
	}
	st := s.Stats()
	if st.Rejected != 3*q || st.QueueDepth != q {
		t.Fatalf("stats disagree: %+v", st)
	}
	if _, ok := s.Cancel(blocker.ID); !ok {
		t.Fatal("cancel of running blocker failed")
	}
	fin := waitTerminal(t, s, blocker.ID)
	if fin.State != StateCancelled {
		t.Fatalf("blocker state = %s, want cancelled", fin.State)
	}
}

func TestCancelQueuedAndUnknown(t *testing.T) {
	s := New(Options{QueueCap: 4, Workers: 1})
	defer s.Close()
	blocker, err := s.Submit(longSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, blocker.ID)
	queued, err := s.Submit(smallSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Cancel(queued.ID); !ok {
		t.Fatal("cancel of queued job failed")
	}
	if _, ok := s.Cancel("sweep-999"); ok {
		t.Fatal("cancel of unknown job succeeded")
	}
	if _, ok := s.Cancel(blocker.ID); !ok {
		t.Fatal("cancel of blocker failed")
	}
	fin := waitTerminal(t, s, queued.ID)
	if fin.State != StateCancelled {
		t.Fatalf("queued-then-cancelled job state = %s, want cancelled", fin.State)
	}
	if len(fin.Trials) != 0 {
		t.Fatalf("cancelled-before-start job ran %d trials", len(fin.Trials))
	}
	waitTerminal(t, s, blocker.ID)
}

// TestDrainGraceful pins the clean path: Drain with headroom finishes every
// job, later submissions are refused, and no worker goroutine survives.
func TestDrainGraceful(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(Options{QueueCap: 16, Workers: 2})
	ids := make([]string, 0, 8)
	for i := 0; i < 8; i++ {
		st, err := s.Submit(smallSpec(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("graceful drain: %v", err)
	}
	for _, id := range ids {
		st, _ := s.Get(id)
		if st.State != StateDone {
			t.Fatalf("job %s state = %s after drain, want done", id, st.State)
		}
	}
	if _, err := s.Submit(smallSpec(99)); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit err = %v, want ErrDraining", err)
	}
	waitNoExtraGoroutines(t, base)
}

// TestDrainDeadlineCancels pins the forced path: an expired drain deadline
// cancels the running and queued jobs, every job still reaches a terminal
// state, and the workers exit.
func TestDrainDeadlineCancels(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(Options{QueueCap: 8, Workers: 1})
	blocker, err := s.Submit(longSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, blocker.ID)
	queued, err := s.Submit(longSpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Fatal("forced drain reported success")
	}
	for _, id := range []string{blocker.ID, queued.ID} {
		st, _ := s.Get(id)
		if st.State != StateCancelled {
			t.Fatalf("job %s state = %s after forced drain, want cancelled", id, st.State)
		}
	}
	waitNoExtraGoroutines(t, base)
}

// TestCacheSharedAcrossJobs pins the instance cache: two jobs sweeping the
// same fixed instance build it once; a different key misses again.
func TestCacheSharedAcrossJobs(t *testing.T) {
	s := New(Options{QueueCap: 8, Workers: 1})
	defer s.Close()
	a, err := s.Submit(smallSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, a.ID)
	b, err := s.Submit(smallSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, b.ID)
	st := s.Stats()
	// star is seed-independent: both jobs (2 trials each) share one entry.
	if st.CacheMisses != 1 {
		t.Fatalf("cache misses = %d, want 1 (second job should hit)", st.CacheMisses)
	}
	if st.CacheHits != 3 {
		t.Fatalf("cache hits = %d, want 3", st.CacheHits)
	}
	other := smallSpec(1)
	other.D = 24
	c, err := s.Submit(other)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, c.ID)
	if st := s.Stats(); st.CacheMisses != 2 {
		t.Fatalf("cache misses = %d after a new key, want 2", st.CacheMisses)
	}
}

// TestJobTimeoutAndRetry pins the spec's per-trial deadline: an impossible
// budget fails the job with a deadline error after the configured retries.
func TestJobTimeoutAndRetry(t *testing.T) {
	s := New(Options{QueueCap: 4, Workers: 1})
	defer s.Close()
	// trivial's runtime is engine-dominated and a 50k-node topology cannot
	// even be set up inside 1ms, so the round-boundary check trips reliably.
	spec := SweepSpec{Gen: "leftregular", NU: 10_000, NV: 40_000, D: 32,
		Algos: []string{"trivial"}, Seed: 1, Trials: 1, TrialTimeoutMS: 1, Retries: 1}
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, s, st.ID)
	if fin.State != StateFailed {
		t.Fatalf("job state = %s, want failed (deadline)", fin.State)
	}
	if len(fin.Trials) != 1 || fin.Trials[0].Retried != 1 {
		t.Fatalf("trial retry accounting wrong: %+v", fin.Trials)
	}
}

// TestLoadSmoke is the CI load test: hundreds of small sweeps plus one
// 100k-node whale through a small queue/pool, asserting no job is starved,
// the whale completes, and a graceful drain leaves no goroutine behind.
func TestLoadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("load smoke skipped in -short")
	}
	base := runtime.NumGoroutine()
	s := New(Options{QueueCap: 512, Workers: 4})

	// D=32 keeps the zero-round splitter's per-attempt failure probability
	// (~nu·2^(1-d)) negligible, so the whale reliably completes.
	whale := SweepSpec{Gen: "leftregular", NU: 20_000, NV: 80_000, D: 32,
		Algos: []string{"trivial"}, Seed: 42, Trials: 1}
	wst, err := s.Submit(whale)
	if err != nil {
		t.Fatal(err)
	}

	const small = 300
	ids := make([]string, 0, small)
	for i := 0; i < small; i++ {
		st, err := s.Submit(smallSpec(uint64(i % 7)))
		if err != nil {
			// The queue is deliberately larger than the burst; rejection
			// here means the capacity accounting is broken.
			t.Fatalf("small sweep %d rejected: %v", i, err)
		}
		ids = append(ids, st.ID)
	}

	for _, id := range ids {
		if st := waitTerminal(t, s, id); st.State != StateDone {
			t.Fatalf("small job %s: state %s (err %q)", id, st.State, st.Error)
		}
	}
	if st := waitTerminal(t, s, wst.ID); st.State != StateDone {
		t.Fatalf("whale: state %s (err %q)", st.State, st.Error)
	}

	stats := s.Stats()
	if stats.Done != small+1 {
		t.Fatalf("done = %d, want %d", stats.Done, small+1)
	}
	if stats.CacheHits == 0 {
		t.Fatalf("load run never hit the cache: %+v", stats)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain after load: %v", err)
	}
	waitNoExtraGoroutines(t, base)
}
