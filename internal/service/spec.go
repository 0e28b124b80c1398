// Package service runs weak-splitting sweeps as jobs behind a bounded
// queue: the execution layer of the wsplitd HTTP daemon. A job is one
// SweepSpec — an instance generator, a set of algorithms, and a seed range —
// fanned over the experiment harness's trial grid under the run-control
// layer, so every job is cancellable at LOCAL round boundaries, panic
// isolated, and bounded by a per-trial deadline.
//
// The server owns three resources the HTTP layer must not: a FIFO job queue
// of fixed capacity that rejects loudly when full (the 429 surface), a
// worker pool sized by GOMAXPROCS, and an LRU topology cache keyed by
// (generator, params, seed) with singleflight build dedup so concurrent
// jobs over the same instance share one built CSR.
package service

import (
	"fmt"
	"time"

	"repro/internal/experiments"
)

// Limits on a single sweep, protecting the shared server from one
// pathological spec rather than from load (the queue handles load).
const (
	MaxNodes  = 1 << 21 // per side
	MaxTrials = 1 << 12
	// MaxRetries caps the extra attempts per trial: with a tight
	// TrialTimeoutMS every attempt of a slow trial fails, so an uncapped
	// count would hold a worker for Retries × timeout per seed.
	MaxRetries = 16
	MaxAlgos   = 16
)

// SweepSpec is one job's request: build instances from the named generator
// and run every (algorithm, seed) trial of the sweep.
type SweepSpec struct {
	// Gen names the instance generator (see experiments.GeneratorNames).
	Gen string `json:"gen"`
	// NU, NV, D size the generated instance (constraints, variables, left
	// degree); generators that ignore a knob accept 0.
	NU int `json:"nu"`
	NV int `json:"nv"`
	D  int `json:"d"`
	// Algos lists the algorithms to run per seed (experiments.AlgoNames).
	Algos []string `json:"algos"`
	// Seed is the first seed; Trials sweeps seeds Seed..Seed+Trials-1
	// (Trials 0 means 1).
	Seed   uint64 `json:"seed"`
	Trials int    `json:"trials"`
	// TrialTimeoutMS bounds each trial attempt's wall time in milliseconds
	// (0 = none); an attempt over budget is retried per Retries.
	TrialTimeoutMS int64 `json:"trial_timeout_ms,omitempty"`
	// Retries re-runs transient trial failures (deadline expiry, node-program
	// panic) up to this many extra attempts.
	Retries int `json:"retries,omitempty"`
}

// Validate rejects a spec the server must not queue: unknown generator or
// algorithm names, and sizes beyond the single-job limits. It normalizes
// nothing — the spec echoed back in job status is the one submitted.
func (s *SweepSpec) Validate() error {
	if !experiments.KnownGenerator(s.Gen) {
		return fmt.Errorf("service: unknown generator %q (have %v)", s.Gen, experiments.GeneratorNames())
	}
	if len(s.Algos) == 0 {
		return fmt.Errorf("service: spec names no algorithms")
	}
	if len(s.Algos) > MaxAlgos {
		return fmt.Errorf("service: %d algorithms exceeds the per-job limit %d", len(s.Algos), MaxAlgos)
	}
	for _, a := range s.Algos {
		if !experiments.KnownAlgo(a) {
			return fmt.Errorf("service: unknown algorithm %q (have %v)", a, experiments.AlgoNames())
		}
	}
	if s.NU < 0 || s.NV < 0 || s.D < 0 {
		return fmt.Errorf("service: negative instance size (nu=%d nv=%d d=%d)", s.NU, s.NV, s.D)
	}
	if s.NU > MaxNodes || s.NV > MaxNodes {
		return fmt.Errorf("service: instance side %d exceeds the per-job limit %d", max(s.NU, s.NV), MaxNodes)
	}
	if s.Trials < 0 || s.Trials > MaxTrials {
		return fmt.Errorf("service: %d trials outside [0, %d]", s.Trials, MaxTrials)
	}
	if s.TrialTimeoutMS < 0 {
		return fmt.Errorf("service: negative trial timeout %dms", s.TrialTimeoutMS)
	}
	if s.Retries < 0 || s.Retries > MaxRetries {
		return fmt.Errorf("service: retry count %d outside [0, %d]", s.Retries, MaxRetries)
	}
	return nil
}

// trials returns the effective trial count (a zero spec means one trial).
func (s *SweepSpec) trials() int {
	if s.Trials <= 0 {
		return 1
	}
	return s.Trials
}

// State is a job's lifecycle position. Terminal states are StateDone,
// StateFailed and StateCancelled.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Accounting is a job's resource ledger.
type Accounting struct {
	// QueueWaitMS is the time between submission and a worker picking the
	// job up; WallMS the execution time after that.
	QueueWaitMS int64 `json:"queue_wait_ms"`
	WallMS      int64 `json:"wall_ms"`
	// Rounds and Messages sum the LOCAL simulation work over every engine
	// run the job's trials performed (retries included).
	Rounds   int64 `json:"rounds"`
	Messages int64 `json:"messages"`
}

// JobStatus is the externally visible snapshot of one job — what
// GET /v1/sweeps/{id} serializes.
type JobStatus struct {
	ID    string    `json:"id"`
	State State     `json:"state"`
	Spec  SweepSpec `json:"spec"`
	// Error is set for failed (and some cancelled) jobs.
	Error string `json:"error,omitempty"`
	// Trials carries the per-cell results once the job is terminal.
	Trials     []experiments.TrialResult `json:"trials,omitempty"`
	Accounting Accounting                `json:"accounting"`
}

// durMS converts a measured duration to the ledger's milliseconds.
func durMS(d time.Duration) int64 { return d.Milliseconds() }
