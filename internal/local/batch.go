package local

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the throughput coordinator: BatchRun executes
// independent trials of LOCAL node programs over one shared Topology in a
// single pass, and WorkerPoolEngine is its one-trial case. Every experiment
// sweep reruns the same topology under many seeds; running the trials one
// engine invocation at a time would pay engine setup, per-round scheduling
// and cache-cold topology traversal once per trial.
//
//   - Message planes are laid out per representation: word trials share
//     double-buffered [S × arcs]Word planes, and bit trials share packed bit
//     planes with word-aligned per-trial strides (so no two trials share a
//     plane word). Within a trial's region node v's inbox row uses the
//     topology's own offsets. Directed edge (trial, arc) owns a unique slot,
//     so writes are race-free by construction on the word planes; the bit
//     planes use the atomic discipline of bit.go for words shared between
//     adjacent rows.
//   - A single worker pool schedules (trial, shard) units: each global round
//     carves every live trial's active set into contiguous arc-balanced
//     shards (carveByWeight; a node weighs 1 + deg, so a trial's hub-heavy
//     region splits across workers instead of serializing one) and the
//     workers drain them from one queue. A trial that terminates (or
//     shrinks to a few active nodes) stops contributing units, so short
//     trials free pool capacity for long ones — exactly the shape of a
//     shattering sweep, where most trials collapse early and a few run
//     long tails.
//   - Boxed trials have no throughput path: each runs to completion on the
//     boxed loop, runSeqBoxed, during setup, on the coordinator.
//   - A pool of one worker runs its units inline on the coordinator, with
//     no goroutines and no atomics: that is SequentialEngine.
//   - Compaction costs what a round retired. A trial none of whose nodes
//     finished skips it; otherwise the round's own units retire the
//     finished nodes of their shards and pack their survivors to the front
//     of the shard, on the pool when the retirees weigh a unit or more
//     (compactUnit), and the coordinator slides the packed shards down in
//     order, so the active set keeps the order a serial scan would give.
//
// Trials are observationally independent: per-node randomness is keyed by
// (seed, ID) only, so every trial's message trace, outputs and Stats are
// bit-identical to a standalone run with the same Options on the boxed
// loop (the determinism, batch and golden-trace suites pin this).

// Trial is one independent run of a batch: a node-program factory plus its
// per-trial options (randomness source, ID assignment, inputs, round cap,
// forced plane).
type Trial struct {
	Factory Factory
	Opts    Options
}

// BatchOptions configure BatchRun.
type BatchOptions struct {
	// Workers sizes the shared worker pool; <= 0 means GOMAXPROCS. The
	// pool is capped at the most units a round can carve (see batchRun).
	Workers int
	// Control cancels the whole batch: at every round boundary each still-
	// live trial is retired with ErrCancelled/ErrDeadline and its partial
	// Stats. Per-trial control lives in each Trial's Options.Control; both
	// levels compose (the batch-level control fires first).
	Control *RunControl
}

// batchMinShard is the smallest (trial, shard) unit weight — in the 1+deg
// units of carveByWeight — the scheduler hands to a worker; below this the
// wakeup costs more than the work. A compaction whose retirees weigh less
// runs inline for the same reason. A variable only so that tests can lower
// it: their fixtures weigh less than one unit.
var batchMinShard int64 = 1024

// carveByWeight splits active[:remaining] into contiguous chunks each
// weighing at least target (a node weighs 1 + deg: one Round call plus one
// delivery per arc) and returns the chunk boundaries reusing bounds; the
// final chunk may be lighter. Balancing arcs rather than nodes keeps a
// skewed-degree graph's hubs from piling onto one worker.
func (t *Topology) carveByWeight(active []int32, remaining int, target int64, bounds []int32) []int32 {
	bounds = append(bounds[:0], 0)
	acc := int64(0)
	for i := 0; i < remaining; i++ {
		v := active[i]
		acc += 1 + int64(t.off[v+1]-t.off[v])
		if acc >= target && i+1 < remaining {
			bounds = append(bounds, int32(i+1))
			acc = 0
		}
	}
	bounds = append(bounds, int32(remaining))
	return bounds
}

// batchTrial is the per-trial state of a batch run.
type batchTrial struct {
	idx       int        // position in the trials slice (and the result slices)
	wnodes    []WordNode // non-nil when the trial takes the word fast path
	bnodes    []BitNode  // non-nil when the trial takes the bit fast path
	active    []int32    // indices of still-running nodes; first `remaining` valid
	done      []bool     // terminated (set by workers mid-round)
	dead      []bool     // terminated in a strictly earlier round (written at compaction)
	remaining int
	weight    int64   // active-set weight (1+deg per node) for unit carving
	bounds    []int32 // per-round shard boundaries, reused
	// carvedRemaining/carvedUnit memoize the carve above: while no node of
	// the trial terminated (remaining unchanged means the active prefix is
	// bit-identical) and the batch-wide unit target has not drifted past 2×
	// in either direction, the previous bounds are reused as-is.
	carvedRemaining int
	carvedUnit      int64
	faults          *faultState // nil when the trial injects no faults
	ctl             *RunControl // nil when the trial is uncontrolled
	maxRounds       int
	base            int // plane offset of this trial in the word planes: idx × arcs
	stats           Stats
	errNode         int // node index of the first per-round error, -1 if none
	err             error
	// Bit trials run their units through pass (see bitPass), which the
	// coordinator drives round by round.
	pass  bitPass
	bdead deadDeliver // bit trial: delivery-table view with dead arcs marked
	// This round's delivered count, finished nodes and their weight, summed
	// over units.
	roundMsgs      int64
	finished       int
	finishedWeight int64
	compact        bool // the round retired part of the active set
	slide          int  // compaction: survivors packed so far
	// A word trial whose nodes are all WordSleepers and which injects no
	// faults lets idle nodes sleep (nil otherwise): wake[v] is the round
	// node v asked to run next, and mail[(r&1)·n+v] == r marks that v got
	// mail for round r. Delivery in round r stamps the other half, so a
	// round reads one half while its units write the other.
	wake []int32
	mail []atomic.Int32
}

// batchPlanes bundles the double-buffered plane pairs of one batch run, one
// pair per message representation actually present; a pair is only
// allocated when a trial of its kind exists. Trial s's region is
// [s·arcs, (s+1)·arcs) of the word planes, and words
// [s·stride, (s+1)·stride) of each packed bit sub-plane.
type batchPlanes struct {
	winbox, wnext []Word
	binbox, bnext bitPlane
	laneStride    int // words per trial in the packed bit planes
}

// swap flips every double buffer at a round boundary.
func (pl *batchPlanes) swap() {
	pl.winbox, pl.wnext = pl.wnext, pl.winbox
	pl.binbox, pl.bnext = pl.bnext, pl.binbox
}

// bitTrial returns trial s's regions of the bit planes as standalone
// planes; arc indices within them start at 0, exactly as under the engines,
// and the word-aligned stride means no plane word is shared across trials.
func (pl *batchPlanes) bitTrial(s int) (inbox, next bitPlane) {
	st := pl.laneStride
	inbox = bitPlane{lanes: pl.binbox.lanes[s*st : (s+1)*st], width: pl.binbox.width}
	next = bitPlane{lanes: pl.bnext.lanes[s*st : (s+1)*st], width: pl.bnext.width}
	return
}

// batchUnit is one (trial, shard) work item: shard [lo, hi) of the trial's
// active set, executed at round r. Workers record their message count and
// first error here; the coordinator merges after the round barrier. The
// same unit then compacts its shard (compactUnit).
type batchUnit struct {
	trial    *batchTrial
	lo, hi   int
	r        int
	msgs     int64
	retired  int   // nodes of the unit that finished this round
	retiredW int64 // their weight, 1+deg each
	err      error
	errNode  int
	at       int   // compaction: the unit's first retiree slot in the trial's list
	drop     int64 // compaction: messages delivered to the unit's retirees
}

// compacts reports whether the unit retires nodes at this round's
// compaction.
func (u *batchUnit) compacts() bool { return u.retired > 0 && u.trial.compact }

// BatchRun executes len(trials) independent trials of LOCAL node programs
// over one shared Topology in a single batched pass and returns one Stats
// and one error slot per trial, in trial order. Failed trials (option
// validation, port-count violations, MaxRounds exhaustion, a forced plane
// the programs cannot take) report through their error slot without
// disturbing the other trials.
//
// Each trial is bit-identical to a standalone run of trials[i] on any engine
// and any plane the programs support; batching changes wall-clock time only.
func BatchRun(t *Topology, trials []Trial, bopts BatchOptions) ([]Stats, []error) {
	stats, errs, _, _ := batchRun(t, trials, bopts)
	return stats, errs
}

// batchRun is BatchRun that also returns the run's planes and per-trial
// state, for the in-package plane-hygiene and carve tests.
func batchRun(t *Topology, trials []Trial, bopts BatchOptions) ([]Stats, []error, batchPlanes, []batchTrial) {
	nTrials := len(trials)
	statsOut := make([]Stats, nTrials)
	errsOut := make([]error, nTrials)
	var pl batchPlanes
	n := t.N()
	arcs := len(t.adj)
	// Size the pool to the work: a round carves a trial into at most
	// ceil(weight/batchMinShard) units and active weights only fall, so
	// workers past that bound would never run a unit. A pool capped to one
	// worker runs inline, with no goroutines and no atomics.
	nw := bopts.Workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	if most := int64(nTrials) * ((int64(n+arcs) + batchMinShard - 1) / batchMinShard); int64(nw) > most {
		nw = int(most)
	}
	if nw < 1 {
		nw = 1
	}

	// Per-trial setup. Node programs are created in the coordinator, in node
	// order within each trial, so factories may keep (unsynchronized)
	// per-trial shared state exactly as under the engines. Trials with
	// identity IDs and no inputs — the common sweep shape — share one base
	// view set (NbrIDs and all) and differ only in the random streams
	// attached per trial; views are handed to factories by value, so the
	// sharing is invisible to programs.
	all := make([]batchTrial, nTrials)
	var live []*batchTrial
	var shared viewSet
	haveShared := false
	bitWidth := 0
	pulls := false // some bit trial pulls, so workers need gather blocks
	for s := range trials {
		tr := &all[s]
		tr.idx = s
		tr.base = s * arcs
		if trials[s].Factory == nil {
			errsOut[s] = fmt.Errorf("local: trial %d has a nil Factory", s)
			continue
		}
		opts := trials[s].Opts
		var vs viewSet
		if opts.IDs == nil && opts.Inputs == nil {
			if !haveShared {
				var err error
				if shared, err = baseViews(t, opts); err != nil {
					errsOut[s] = err
					continue
				}
				haveShared = true
			}
			vs = shared
		} else {
			var err error
			if vs, err = baseViews(t, opts); err != nil {
				errsOut[s] = err
				continue
			}
		}
		nodes, err := buildNodes(trials[s].Factory, vs, opts.Source)
		if err != nil {
			errsOut[s] = err
			continue
		}
		var bw int
		tr.bnodes, bw, tr.wnodes, err = planeNodes(nodes, opts.Plane, arcs)
		if err != nil {
			errsOut[s] = err
			continue
		}
		if tr.faults, err = newFaultState(t, opts.Faults); err != nil {
			errsOut[s] = err
			continue
		}
		tr.maxRounds = opts.MaxRounds
		if tr.maxRounds <= 0 {
			tr.maxRounds = defaultMaxRounds
		}
		if tr.bnodes == nil && tr.wnodes == nil {
			// A boxed trial runs here, on the coordinator, through the
			// boxed loop — governed by the batch-level control first and
			// its own second, as a batched trial would be.
			statsOut[s], errsOut[s] = runSeqBoxed(t, nodes, tr.maxRounds, tr.faults,
				opts.Control.under(bopts.Control))
			continue
		}
		if bw > bitWidth {
			bitWidth = bw
		}
		tr.carvedRemaining = -1
		tr.ctl = opts.Control
		tr.active = make([]int32, n)
		for v := range tr.active {
			tr.active[v] = int32(v)
		}
		tr.done = make([]bool, n)
		tr.dead = make([]bool, n)
		if tr.wnodes != nil && tr.faults == nil && allSleep(tr.wnodes) {
			tr.wake, tr.mail = make([]int32, n), make([]atomic.Int32, 2*n)
		}
		if tr.bnodes != nil {
			tr.bdead = deadDeliver{t: t}
			// A single inline worker owns every plane word (see runRound).
			tr.pass = newBitPass(t, tr.bnodes, tr.done, tr.faults != nil, nw > 1)
			pulls = pulls || tr.pass.pulls
		}
		tr.remaining = n
		tr.weight = int64(n + arcs)
		if tr.remaining > 0 {
			live = append(live, tr)
		}
	}
	if len(live) == 0 {
		return statsOut, errsOut, pl, all
	}

	// One flat plane pair per message representation actually present,
	// allocated once and reused across rounds: bit trials share packed
	// planes (a mixed-width batch lays every bit trial out at the widest
	// lane — values are unaffected, only the stride grows), and word trials
	// share pointer-free [S×arcs]Word planes the GC never scans. Rows are
	// cleared by their owners right after consumption and at termination, so
	// nothing is re-zeroed wholesale.
	for _, tr := range live {
		switch {
		case tr.bnodes != nil && pl.binbox.lanes == nil:
			pl.laneStride = planeWords(arcs, bitWidth)
			pl.binbox = bitPlane{lanes: make([]uint64, nTrials*pl.laneStride), width: uint32(bitWidth)}
			pl.bnext = bitPlane{lanes: make([]uint64, nTrials*pl.laneStride), width: uint32(bitWidth)}
		case tr.wnodes != nil && pl.winbox == nil:
			pl.winbox = make([]Word, nTrials*arcs)
			pl.wnext = make([]Word, nTrials*arcs)
		}
	}

	// With a single worker the coordinator runs the units inline and no
	// goroutines exist at all; the multi-worker machinery lives in its own
	// heap object (see batchWorkers), so the one-worker path — every
	// SequentialEngine run — escapes none of it.
	var unitBuf []batchUnit
	var workers *batchWorkers
	var inline unitScratch
	if nw > 1 {
		workers = startBatchWorkers(t, nw, bitWidth, pulls, pl.winbox != nil, pl.binbox.lanes != nil)
		defer workers.stop()
	} else {
		inline = newUnitScratch(t.maxDeg, bitWidth, pl.winbox != nil, pl.binbox.lanes != nil, pulls)
	}
	runRound := func() {
		if workers != nil {
			workers.run(&pl, unitBuf, false, len(unitBuf))
			return
		}
		// A single inline worker owns every plane word mid-round, so the
		// bit path skips its atomics (see bitPass.par).
		for i := range unitBuf {
			runBatchUnit(t, &pl, &inline, &unitBuf[i])
		}
	}
	// compact runs the compacting units: on the pool, unless there is no
	// pool or the retirees weigh less than one unit.
	compact := func(weight int64) {
		if workers != nil && weight >= batchMinShard {
			busy := 0
			for i := range unitBuf {
				if unitBuf[i].compacts() {
					busy++
				}
			}
			workers.run(&pl, unitBuf, true, busy)
			return
		}
		for i := range unitBuf {
			if unitBuf[i].compacts() {
				compactUnit(t, &pl, &unitBuf[i])
			}
		}
	}

	// clearNext zeroes a trial's rows of the next plane; clearTrial zeroes
	// its rows of both planes, so no stale word or bit outlives a retired
	// trial within a long-running batch.
	clearNext := func(tr *batchTrial) {
		if tr.bnodes != nil {
			tr.pass.next.clearAll()
			return
		}
		clear(pl.wnext[tr.base : tr.base+arcs])
	}
	clearTrial := func(tr *batchTrial) {
		if tr.bnodes != nil {
			bi, bn := pl.bitTrial(tr.idx)
			bi.clearAll()
			bn.clearAll()
			return
		}
		clear(pl.winbox[tr.base : tr.base+arcs])
		clear(pl.wnext[tr.base : tr.base+arcs])
	}

	for r := 1; len(live) > 0; r++ {
		// Retire trials whose round cap is exhausted — or whose control (the
		// batch-level one, or the trial's own) has fired — before running
		// the round, exactly as the engines do: a cancelled trial keeps the
		// Stats of the rounds that executed, and the rounds that ran are
		// bit-identical to an uncancelled run.
		gerr := bopts.Control.Err()
		keepLive := live[:0]
		for _, tr := range live {
			cerr := gerr
			if cerr == nil {
				cerr = tr.ctl.Err()
			}
			if cerr != nil {
				s := tr.idx
				errsOut[s] = cerr
				statsOut[s] = tr.stats
				clearTrial(tr)
				continue
			}
			if r > tr.maxRounds {
				s := tr.idx
				errsOut[s] = maxRoundsErr(tr.maxRounds)
				statsOut[s] = tr.stats
				clearTrial(tr)
				continue
			}
			tr.stats.Rounds = r
			tr.errNode = -1
			tr.err = nil
			keepLive = append(keepLive, tr)
		}
		live = keepLive
		if len(live) == 0 {
			break
		}

		// Carve every live trial's active set into (trial, shard) units of
		// roughly equal arc weight. The unit weight targets a few units per
		// worker across the whole batch, so a trial with a long tail still
		// splits across the pool while near-dead trials cost one small unit
		// each. Units are emitted shard-major (shard k of every trial, then
		// shard k+1): trials executing the same topology region
		// back-to-back keep its CSR rows hot, and on a multi-worker pool
		// the trials' heavy shards spread across workers instead of
		// clumping per trial.
		totalWeight := int64(0)
		for _, tr := range live {
			totalWeight += tr.weight
		}
		unitWeight := totalWeight / int64(nw*4)
		if unitWeight < batchMinShard {
			unitWeight = batchMinShard
		}
		maxUnits := 0
		for _, tr := range live {
			if tr.bnodes != nil {
				bi, bn := pl.bitTrial(tr.idx)
				tr.pass.begin(r, bi, bn, &tr.bdead, tr.weight)
			}
			tr.roundMsgs, tr.finished, tr.finishedWeight, tr.compact = 0, 0, 0, false
			// Memoized unit carve: reuse the previous bounds while the trial's
			// active prefix is unchanged and the batch-wide unit target has
			// not drifted 2× (trials retiring shifts totalWeight, which would
			// otherwise skew unit granularity without bound).
			if tr.remaining != tr.carvedRemaining || unitWeight > 2*tr.carvedUnit || unitWeight*2 < tr.carvedUnit {
				tr.bounds = t.carveByWeight(tr.active, tr.remaining, unitWeight, tr.bounds)
				tr.carvedRemaining = tr.remaining
				tr.carvedUnit = unitWeight
			}
			if u := len(tr.bounds) - 1; u > maxUnits {
				maxUnits = u
			}
		}
		unitBuf = unitBuf[:0]
		for k := 0; k < maxUnits; k++ {
			for _, tr := range live {
				if k+1 < len(tr.bounds) {
					unitBuf = append(unitBuf, batchUnit{trial: tr, lo: int(tr.bounds[k]), hi: int(tr.bounds[k+1]), r: r})
				}
			}
		}
		runRound()

		// Wholesale-clearing bit trials get their consumed region memclr'd
		// here, between the barrier and the swap (see clearWholesale).
		for _, tr := range live {
			if tr.bnodes != nil {
				tr.pass.clearConsumed()
			}
		}

		// Merge unit results deterministically: message counts sum (order
		// cannot matter) and the reported error is the one at the smallest
		// node index, whatever the schedule. A unit's retirees get the next
		// slots of its trial's retiree list, in unit order.
		for i := range unitBuf {
			u := &unitBuf[i]
			tr := u.trial
			tr.stats.Messages += u.msgs
			tr.roundMsgs += u.msgs
			u.at = tr.finished
			tr.finished += u.retired
			tr.finishedWeight += u.retiredW
			if u.err != nil && (tr.errNode < 0 || u.errNode < tr.errNode) {
				tr.err = u.err
				tr.errNode = u.errNode
			}
		}

		// Settle each trial's round: retire failed trials and trials whose
		// whole active set stopped, and mark the trials that retired part of
		// their active set for compaction.
		retiring := int64(0)
		keepLive = live[:0]
		for _, tr := range live {
			s := tr.idx
			if tr.err != nil {
				errsOut[s] = tr.err
				statsOut[s] = tr.stats
				clearTrial(tr)
				continue
			}
			if tr.faults == nil && tr.finished == tr.remaining {
				// The whole active set stopped: every message of this
				// round went to a node that is now retiring, so uncount
				// them all and drop them wholesale — no per-row count,
				// clear or kill.
				tr.stats.Messages -= tr.roundMsgs
				clearNext(tr)
				statsOut[s] = tr.stats
				continue
			}
			if tr.bnodes != nil {
				tr.pass.startCompaction(tr.finished)
			}
			tr.compact = tr.finished > 0
			if tr.compact {
				retiring += tr.finishedWeight
				if tr.bnodes != nil {
					tr.bdead.own()
				}
			}
			keepLive = append(keepLive, tr)
		}
		live = keepLive
		if retiring > 0 {
			compact(retiring)
		}

		// Per-trial compaction: slide the units' packed survivors down in
		// unit order and uncount the messages to their retirees; then run
		// the fault boundary and retire finished trials so they stop
		// contributing units.
		for i := range unitBuf {
			u := &unitBuf[i]
			tr := u.trial
			if !tr.compact {
				continue
			}
			kept := u.hi - u.lo - u.retired
			if tr.slide != u.lo {
				copy(tr.active[tr.slide:tr.slide+kept], tr.active[u.lo:u.lo+kept])
			}
			tr.slide += kept
			tr.stats.Messages -= u.drop
		}
		keepLive = live[:0]
		for _, tr := range live {
			s := tr.idx
			if tr.compact {
				tr.remaining, tr.slide = tr.slide, 0
				tr.weight -= tr.finishedWeight
			}
			if tr.faults != nil {
				var next faultSlots
				if tr.bnodes != nil {
					next = tr.pass.next
				} else {
					next = wordSlots(pl.wnext[tr.base : tr.base+arcs])
				}
				if crashed := tr.faults.boundary(r, next, tr.dead, &tr.stats); len(crashed) > 0 {
					if tr.bnodes != nil {
						tr.bdead.own()
					}
					for _, v := range crashed {
						tr.done[v] = true
						tr.dead[v] = true
						if tr.bnodes != nil {
							tr.bdead.kill(v)
						}
						tr.weight -= 1 + int64(t.off[v+1]-t.off[v])
					}
					keep := tr.active[:0]
					for _, v := range tr.active[:tr.remaining] {
						if !tr.done[v] {
							keep = append(keep, v)
						}
					}
					tr.remaining = len(keep)
				}
			}
			if tr.remaining == 0 {
				statsOut[s] = tr.stats
				continue
			}
			if tr.bnodes != nil {
				tr.pass.end()
			}
			keepLive = append(keepLive, tr)
		}
		live = keepLive
		pl.swap()
	}
	return statsOut, errsOut, pl, all
}

// batchWorkers is a batch run's multi-worker pool. Workers claim (trial,
// shard) units off the round's unit list with an atomic cursor: one wakeup
// per worker per global round, not one channel operation per unit. Merging
// S trials into one round barrier is the whole point of the batch — S
// per-trial pool runs pay S barriers per round-equivalent, this pays one.
type batchWorkers struct {
	// pl and units are the round's planes and units, and compact selects
	// the phase the workers run them through — the round, or its
	// compaction. The coordinator writes them before it wakes the workers
	// (the start send orders the writes before every worker's reads) and
	// leaves them alone until the barrier.
	pl       batchPlanes
	units    []batchUnit
	compact  bool
	cursor   atomic.Int64
	start    []chan struct{}
	barrier  sync.WaitGroup
	lifetime sync.WaitGroup
}

// startBatchWorkers spawns nw workers, each with its own scratch for the
// plane kinds present. Workers read planes only from the per-round copy in
// the pool, never the coordinator's, because a worker that is never woken
// (fewer units than workers) can still be starting while the coordinator
// swaps its planes at a round boundary.
func startBatchWorkers(t *Topology, nw, bitWidth int, pulls, hasWord, hasBit bool) *batchWorkers {
	bw := &batchWorkers{start: make([]chan struct{}, nw)}
	for w := 0; w < nw; w++ {
		bw.start[w] = make(chan struct{}, 1)
		bw.lifetime.Add(1)
		go func(start <-chan struct{}) {
			defer bw.lifetime.Done()
			sc := newUnitScratch(t.maxDeg, bitWidth, hasWord, hasBit, pulls)
			for range start {
				for {
					i := int(bw.cursor.Add(1)) - 1
					if i >= len(bw.units) {
						break
					}
					u := &bw.units[i]
					switch {
					case !bw.compact:
						runBatchUnit(t, &bw.pl, &sc, u)
					case u.compacts():
						compactUnit(t, &bw.pl, u)
					}
				}
				bw.barrier.Done()
			}
		}(bw.start[w])
	}
	return bw
}

// run executes one round's units, or their compaction, on the pool and
// returns after the barrier, when every woken worker has finished. busy is
// the number of units with work in the phase: no more workers are woken.
func (bw *batchWorkers) run(pl *batchPlanes, units []batchUnit, compact bool, busy int) {
	bw.pl, bw.units, bw.compact = *pl, units, compact
	bw.cursor.Store(0)
	wake := min(len(bw.start), busy)
	bw.barrier.Add(wake)
	for w := 0; w < wake; w++ {
		bw.start[w] <- struct{}{}
	}
	bw.barrier.Wait()
}

// stop ends the workers and waits for them to exit.
func (bw *batchWorkers) stop() {
	for _, ch := range bw.start {
		close(ch)
	}
	bw.lifetime.Wait()
}

// unitScratch is one worker's reused scratch, shared by every unit it
// runs: the send row for word trials, the send row for bit trials, and the
// gather block for bit trials that pull (nil when no trial needs it).
type unitScratch struct {
	wsend []Word
	bsend BitRow
	gbuf  []uint64
}

// newUnitScratch allocates a worker's scratch for the trials of a run:
// word and bit send rows of maxDeg ports when such trials exist, and the
// gather block only when some bit trial pulls — a gather block is a few KB,
// more than a small run's whole planes.
func newUnitScratch(maxDeg, bitWidth int, word, bit, pull bool) unitScratch {
	var sc unitScratch
	if word {
		sc.wsend = make([]Word, maxDeg)
	}
	if bit {
		sc.bsend = newBitScratch(maxDeg, bitWidth)
	}
	if pull {
		sc.gbuf = make([]uint64, gatherWords(maxDeg, bitWidth))
	}
	return sc
}

// runBatchUnit executes one (trial, shard) unit: it runs every node of the
// shard against the trial's inbox plane, delivers sends into the trial's
// next plane (dropping messages to dead nodes, which are never consumed),
// and clears each consumed inbox row. All mutated state is owned by this
// unit for the duration of the round, except the bit planes' shared
// boundary words, which the bit path handles atomically.
func runBatchUnit(t *Topology, pl *batchPlanes, sc *unitScratch, u *batchUnit) {
	if u.trial.bnodes != nil {
		runBatchUnitBit(sc, u)
		return
	}
	runBatchUnitWord(t, pl.winbox, pl.wnext, sc.wsend, u)
}

// runBatchUnitWord is runBatchUnit for a word trial, over the pointer-free
// word planes with the worker's reused send scratch. In a sleeping trial
// (tr.wake non-nil) a node whose wake round lies ahead and that got no mail
// is skipped outright: its inbox row is silent and its send row empty, so
// nothing is read, called or cleared. Only the slots that got mail are
// cleared. Panic isolation: a panic in one trial's node program becomes
// that unit's error — merged like any per-round error, retiring only this
// trial — while sibling trials and the worker pool keep running. The
// guard's defer sits outside the marked loop (defers are banned inside)
// and is open-coded — the steady state still allocates nothing.
func runBatchUnitWord(t *Topology, inbox, next, wsend []Word, u *batchUnit) {
	tr := u.trial
	msgs := int64(0)
	retired, retiredW := 0, int64(0)
	curV := -1
	defer func() {
		if p := recover(); p != nil {
			u.err = newPanicError(curV, u.r, p)
			u.errNode = curV
			u.msgs = msgs
		}
	}()
	r := int32(u.r)
	var mail, nextMail []atomic.Int32
	if n := len(tr.wake); n > 0 {
		half := int(r&1) * n
		mail, nextMail = tr.mail[half:half+n], tr.mail[n-half:2*n-half]
	}
	//splitlint:zeroalloc
	for i := u.lo; i < u.hi; i++ {
		v := int(tr.active[i])
		if mail != nil && tr.wake[v] > r && mail[v].Load() != r {
			continue
		}
		curV = v
		lo, hi := int(t.off[v]), int(t.off[v+1])
		recv := inbox[tr.base+lo : tr.base+hi : tr.base+hi]
		send := wsend[:hi-lo]
		if tr.wnodes[v].RoundW(u.r, recv, send) {
			tr.done[v] = true
			retired++
			retiredW += 1 + int64(hi-lo)
		} else if mail != nil {
			tr.wake[v] = int32(min(max(tr.wnodes[v].(WordSleeper).WakeW(u.r), 0), math.MaxInt32))
		}
		msgs += t.deliverWords(next, tr.dead, tr.base, int32(lo), send, nextMail, r+1)
		for p, m := range recv {
			if m != NilWord {
				recv[p] = NilWord
			}
		}
	}
	u.msgs, u.retired, u.retiredW = msgs, retired, retiredW
}

// runBatchUnitBit is runBatchUnitWord for a bit trial: the trial's bitPass
// runs the shard over the trial's packed plane regions, which behave
// exactly like a standalone engine's planes (within-trial arc indexing,
// atomic discipline for shared boundary words), with the worker's scratch.
func runBatchUnitBit(sc *unitScratch, u *batchUnit) {
	c := bitCursor{v: -1}
	defer func() {
		if p := recover(); p != nil {
			u.err = newPanicError(c.v, u.r, p)
			u.errNode = c.v
			u.msgs = c.msgs
		}
	}()
	u.trial.pass.run(u.trial.active, u.lo, u.hi, sc.bsend, sc.gbuf, &c)
	u.msgs, u.retired, u.retiredW = c.msgs, c.retired, c.retiredW
}

// compactUnit retires the nodes of unit u's shard that finished this round
// and packs the shard's survivors, in order, to its front. Per retiree it
// drops the messages this round delivered to it (counted into u.drop for
// the coordinator to uncount), clears its row, kills its arcs on the bit
// plane and marks it dead, in the dead set the coordinator's fault pass
// then reads; a unit never touches fault state. Every write is to the
// retiree's own row, slots and flags, or to the shard's range of the active
// set and of the bit pass's retiree list, so the units of a compaction run
// concurrently; the shared words of adjacent bit rows are read and cleared
// atomically.
func compactUnit(t *Topology, pl *batchPlanes, u *batchUnit) {
	tr := u.trial
	keep, at := u.lo, u.at
	drop := int64(0)
	for _, v := range tr.active[u.lo:u.hi] {
		if !tr.done[v] {
			tr.active[keep] = v
			keep++
			continue
		}
		if tr.bnodes != nil {
			drop += tr.pass.retire(v, at)
			at++
			tr.bdead.kill(v)
		} else {
			row := pl.wnext[tr.base+int(t.off[v]) : tr.base+int(t.off[v+1])]
			for i := range row {
				if row[i] != NilWord {
					row[i] = NilWord
					drop++
				}
			}
		}
		tr.dead[v] = true
	}
	u.drop = drop
}
