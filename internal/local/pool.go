package local

import (
	"fmt"
	"runtime"
	"sync"
)

// WorkerPoolEngine executes word and bit programs on a fixed pool of worker
// goroutines, each processing a contiguous shard of the active nodes per
// round. The workers persist for the whole run, message planes are
// double-buffered and reused across rounds, and an active-set makes
// terminated nodes cost zero work. Writes are race-free by construction —
// on the word plane each directed edge (v, port p) owns the unique slot
// next[deliver[arc]] of the flat message array (where arc = off[v]+p), on
// the bit planes shared boundary words go through atomics (see bit.go), and
// every per-node field is touched only by the worker that owns v's shard in
// that round. Boxed runs have no throughput path: they run on the
// sequential oracle's boxed loop.
//
// Shards are carved by arc weight, not node count: a node costs one Round
// call plus one unit of work per incident arc, so equal-node shards of a
// skewed-degree graph pile most of the arcs onto the workers that drew the
// hubs and the round waits on them. carveShards balances 1+deg instead.
//
// Like the other engines, per-node randomness is derived from (seed, ID)
// only, so a run is bit-for-bit identical to SequentialEngine.
type WorkerPoolEngine struct {
	// Workers is the pool size; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
}

var _ Engine = WorkerPoolEngine{}

// shard is a half-open range [lo, hi) of indices into the active-set.
type shard struct{ lo, hi int }

// poolWorker is the per-worker scratch state. Workers accumulate message
// counts locally and publish once per round to avoid cross-core traffic.
type poolWorker struct {
	msgs    int64
	retired int // nodes of the shard that finished this round
	err     error
	errNode int
	// tileExec is the largest local round count any tile this worker ran
	// reached during a tiled block (see tile.go); the coordinator takes the
	// max across workers to advance the global round counter, then resets.
	tileExec int
}

// ParseEngine resolves a command-line engine name: "seq" (or "sequential"),
// "pool", or "batch" (the single-trial BatchEngine adapter). poolWorkers
// sizes the worker pool when name is "pool" or "batch" (<= 0 means
// GOMAXPROCS) and is ignored otherwise. The one-goroutine-per-node engine
// was removed; asking for it by name fails with an error that says so.
func ParseEngine(name string, poolWorkers int) (Engine, error) {
	switch name {
	case "seq", "sequential":
		return SequentialEngine{}, nil
	case "pool":
		return WorkerPoolEngine{Workers: poolWorkers}, nil
	case "batch":
		return BatchEngine{Workers: poolWorkers}, nil
	case "goroutine":
		return nil, fmt.Errorf("local: engine %q was removed: use seq for the reference run or pool for throughput (have seq, pool, batch)", name)
	default:
		return nil, fmt.Errorf("local: unknown engine %q (have seq, pool, batch)", name)
	}
}

// EngineUsesWorkers reports whether the named engine consumes a worker-pool
// size, so CLIs can reject a -workers flag that would be silently ignored.
func EngineUsesWorkers(name string) bool {
	return name == "pool" || name == "batch"
}

// carveShards splits active[:remaining] into at most nw contiguous shards
// of roughly equal weight, where a node weighs 1 + deg (one Round call plus
// one delivery per arc), and returns the shard boundaries reusing bounds.
// weight must be the active set's total weight; the engines maintain it
// incrementally across compactions. Node-count sharding — the previous
// scheme — serializes skewed-degree graphs on whichever worker draws the
// hubs; the powerlaw100k benchmark case is the regression guard.
func (t *Topology) carveShards(active []int32, remaining int, weight int64, nw int, bounds []int) []int {
	bounds = append(bounds[:0], 0)
	if nw > remaining {
		nw = remaining
	}
	target := (weight + int64(nw) - 1) / int64(nw)
	acc := int64(0)
	for i := 0; i < remaining && len(bounds) < nw; i++ {
		v := active[i]
		acc += 1 + int64(t.off[v+1]-t.off[v])
		if acc >= target {
			bounds = append(bounds, i+1)
			acc = 0
		}
	}
	if bounds[len(bounds)-1] != remaining {
		bounds = append(bounds, remaining)
	}
	return bounds
}

// carveByWeight splits active[:remaining] into contiguous chunks each
// weighing at least target (1 + deg per node, as in carveShards) and
// returns the chunk boundaries reusing bounds; the final chunk may be
// lighter. The batch runner carves every live trial's active set with it
// and interleaves the resulting (trial, shard) units shard-major.
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

// workerCount resolves the effective pool size for n nodes.
func (e WorkerPoolEngine) workerCount(n int) int {
	nw := e.Workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	if nw > n {
		nw = n
	}
	if nw < 1 {
		nw = 1
	}
	return nw
}

// Run implements Engine. Word and bit runs take the pool's throughput
// loops; any other run (boxed nodes, or a forced PlaneBoxed) is handed to
// the sequential boxed loop, the only boxed loop there is.
func (e WorkerPoolEngine) Run(t *Topology, f Factory, opts Options) (Stats, error) {
	vs, err := views(t, opts)
	if err != nil {
		return Stats{}, err
	}
	// Node programs are created in the coordinator, in node order, so that
	// factories may keep (unsynchronized) shared state exactly as under the
	// other engines.
	nodes, err := buildNodes(f, vs)
	if err != nil {
		return Stats{}, err
	}
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = defaultMaxRounds
	}
	bs, bw, ws, err := planeNodes(nodes, opts.Plane, len(t.adj))
	if err != nil {
		return Stats{}, err
	}
	fs, err := newFaultState(t, opts.Faults)
	if err != nil {
		return Stats{}, err
	}
	ctl := opts.Control
	nw := e.workerCount(t.N())
	if bs != nil {
		stats, _, _, err := e.runBit(t, bs, bw, maxRounds, nw, fs, ctl, opts.Tune)
		return stats, err
	}
	if ws != nil {
		stats, _, _, err := e.runWord(t, ws, maxRounds, nw, fs, ctl, opts.Tune)
		return stats, err
	}
	return runSeqBoxed(t, nodes, maxRounds, fs, ctl, opts.Tune.prefetchScalar())
}

// runWord is the worker pool's word-plane fast path: the double-buffered
// planes are pointer-free []Word arrays the GC never scans, and each worker
// owns one maxDeg-sized send scratch row reused for every node of every
// round — a steady-state round performs zero heap allocations. Each
// directed edge owns a unique slot of the next plane, recv rows are cleared by their owner
// right after RoundW consumes them, and rows of newly-terminated nodes are
// cleared (and their messages uncounted) during compaction, so on a clean
// finish both returned planes are all-NilWord.
func (e WorkerPoolEngine) runWord(t *Topology, nodes []WordNode, maxRounds, nw int, fs *faultState, ctl *RunControl, tune Tuning) (Stats, []Word, []Word, error) {
	pfs := tune.prefetchScalar()
	n := t.N()
	arcs := len(t.adj)
	inbox := make([]Word, arcs)
	next := make([]Word, arcs)
	active := make([]int32, n)
	for v := range active {
		active[v] = int32(v)
	}
	done := make([]bool, n)
	// dead[v]: terminated in a strictly earlier round. Workers drop (and do
	// not count) deliveries to dead nodes — such messages would never be
	// consumed, and writing them would leave stale words in rows the active
	// set no longer visits. dead is written only by the coordinator between
	// rounds, so reading it inside a round is race-free (done, by contrast,
	// is written by workers mid-round).
	dead := make([]bool, n)

	workers := make([]poolWorker, nw)
	work := make([]chan shard, nw)
	round := 0
	var barrier sync.WaitGroup
	var lifetime sync.WaitGroup
	for w := 0; w < nw; w++ {
		work[w] = make(chan shard, 1)
		lifetime.Add(1)
		go func(w int) {
			defer lifetime.Done()
			st := &workers[w]
			send := make([]Word, t.maxDeg)
			// runShard executes one shard under a panic guard (see runWord);
			// the guard's defer sits outside the marked region below, so the
			// steady state still allocates nothing.
			curV := -1
			runShard := func(sh shard) {
				defer func() {
					if p := recover(); p != nil {
						st.err = newPanicError(curV, round, p)
						st.errNode = curV
					}
				}()
				r := round
				msgs := int64(0)
				//splitlint:zeroalloc
				for i := sh.lo; i < sh.hi; i++ {
					v := int(active[i])
					curV = v
					lo, hi := t.off[v], t.off[v+1]
					recv := inbox[lo:hi:hi]
					row := send[:hi-lo]
					if nodes[v].RoundW(r, recv, row) {
						done[v] = true
					}
					msgs += t.deliverWords(next, dead, 0, lo, row, pfs)
					for p := range recv {
						recv[p] = NilWord
					}
				}
				st.msgs = msgs
			}
			for sh := range work[w] {
				runShard(sh)
				barrier.Done()
			}
		}(w)
	}
	defer func() {
		for w := 0; w < nw; w++ {
			close(work[w])
		}
		lifetime.Wait()
	}()

	remaining := n
	weight := int64(n + arcs)
	sp := newShardPlan(t, nw, !tune.NoSticky)
	var stats Stats
	for r := 1; remaining > 0; r++ {
		if r > maxRounds {
			return stats, inbox, next, maxRoundsErr(maxRounds)
		}
		// Cancellation point: see runWord.
		if cerr := ctl.Err(); cerr != nil {
			return stats, inbox, next, cerr
		}
		stats.Rounds = r
		round = r
		bounds := sp.shards(active, remaining, weight)
		launched := len(bounds) - 1
		for w := 0; w < launched; w++ {
			if bounds[w] == bounds[w+1] {
				continue
			}
			barrier.Add(1)
			work[w] <- shard{bounds[w], bounds[w+1]}
		}
		barrier.Wait()
		var firstErr error
		errNode := -1
		for w := 0; w < launched; w++ {
			stats.Messages += workers[w].msgs
			workers[w].msgs = 0
			if workers[w].err != nil && (errNode < 0 || workers[w].errNode < errNode) {
				firstErr = workers[w].err
				errNode = workers[w].errNode
			}
		}
		if firstErr != nil {
			return stats, inbox, next, firstErr
		}
		// Compact the active-set in place so terminated nodes are never
		// visited again. A node that terminated this round may still have
		// received messages (its neighbors could not know it was finishing):
		// those are undeliverable, so uncount them and clear the row — after
		// the swap the new next rows are again all-NilWord.
		keep := active[:0]
		for _, v := range active[:remaining] {
			if !done[v] {
				keep = append(keep, v)
				continue
			}
			lo, hi := t.off[v], t.off[v+1]
			for i := lo; i < hi; i++ {
				if next[i] != NilWord {
					next[i] = NilWord
					stats.Messages--
				}
			}
			weight -= 1 + int64(hi-lo)
			dead[v] = true
			if fs != nil {
				fs.markDown(v)
			}
		}
		remaining = len(keep)
		if fs != nil {
			crashed := fs.boundaryWord(r, next, 0, &stats)
			for _, v := range crashed {
				done[v] = true
				weight -= 1 + int64(t.off[v+1]-t.off[v])
				dead[v] = true
			}
			if len(crashed) > 0 {
				keep = active[:0]
				for _, v := range active[:remaining] {
					if !done[v] {
						keep = append(keep, v)
					}
				}
				remaining = len(keep)
			}
		}
		inbox, next = next, inbox
	}
	return stats, inbox, next, nil
}

// runBit is the worker pool's bit-plane fast path: the double-buffered
// planes are packed bit arrays (1–3 bits per arc, LLC-resident at
// million-node scale), each worker owns one maxDeg-sized packed send
// scratch row, and a steady-state round performs zero heap allocations.
// Ownership follows runWord, with the bit plane's concurrency discipline on
// top (bit.go): deliveries use atomic OR (workers of
// different shards can land in the same plane word), consumed rows are
// cleared with atomic AND-NOT on their boundary words, and reads go through
// atomic loads. Dense fault-free rounds deliver fused broadcasts by pull
// instead (see castSlots). Rows of newly-terminated nodes are popcounted (to
// uncount their undeliverable messages) and cleared during compaction, so
// on a clean finish both returned planes are all-zero.
func (e WorkerPoolEngine) runBit(t *Topology, nodes []BitNode, width, maxRounds, nw int, fs *faultState, ctl *RunControl, tune Tuning) (Stats, bitPlane, bitPlane, error) {
	n := t.N()
	arcs := len(t.adj)
	inbox := newBitPlane(arcs, width)
	next := newBitPlane(arcs, width)
	active := make([]int32, n)
	for v := range active {
		active[v] = int32(v)
	}
	done := make([]bool, n)
	// dead: arcs toward nodes terminated in a strictly earlier round,
	// marked in the run's delivery-table view; written only by the
	// coordinator between rounds (see runWord), read by workers through
	// pass.deliver, set before each dispatch.
	dead := deadDeliver{t: t}
	// With a single worker no plane word is ever shared mid-round (par is
	// false), so the scatter and the row clears skip the LOCK-prefixed
	// atomics entirely — on a one-core pool the bit path then matches the
	// sequential engine's instruction mix.
	pass := newBitPass(t, nodes, done, tune, fs != nil, nw > 1)
	// Tiled execution (see tile.go) is planned lazily per block; the planner
	// and tile state are allocated up front so steady-state rounds stay
	// zero-alloc even when the residue first shatters mid-run. Faults and
	// run-control both need the global round barrier, so they disable it.
	tileR := 0
	var tiler *bitTiler
	var ts bitTileState
	ndCap := 0
	if b := tune.tileBudget(); b > 0 && fs == nil && ctl == nil {
		if tr := tune.tileRounds(); tr >= 2 {
			tileR = tr
			tiler = newBitTiler(t, b)
			ndCap = n
			if b < int64(n) {
				ndCap = int(b)
			}
		}
	}

	workers := make([]poolWorker, nw)
	work := make([]chan shard, nw)
	var barrier sync.WaitGroup
	var lifetime sync.WaitGroup
	for w := 0; w < nw; w++ {
		work[w] = make(chan shard, 1)
		lifetime.Add(1)
		go func(w int) {
			defer lifetime.Done()
			st := &workers[w]
			send := newBitScratch(t.maxDeg, width)
			gbuf := make([]uint64, gatherWords(t.maxDeg, width))
			// runShard executes one shard under a panic guard (see runWord);
			// the guard's defer sits outside bitPass.run's marked region, so
			// the steady state still allocates nothing.
			c := bitCursor{v: -1}
			runShard := func(sh shard) {
				defer func() {
					if p := recover(); p != nil {
						st.err = newPanicError(c.v, pass.r, p)
						st.errNode = c.v
					}
				}()
				c = bitCursor{v: -1}
				pass.run(active, sh.lo, sh.hi, send, gbuf, &c)
				st.msgs, st.retired = c.msgs, c.retired
			}
			// The sentinel shard{lo: -1} switches the worker into tiled mode
			// for one block: it claims tiles from the shared cursor and runs
			// each for the block's rounds (see tile.go). tileDone is the
			// worker's reusable in-tile retirement buffer.
			var tileDone []int32
			for sh := range work[w] {
				if sh.lo < 0 {
					tileDone = ts.drainTiles(st, send, tileDone)
				} else {
					runShard(sh)
				}
				barrier.Done()
			}
		}(w)
	}
	defer func() {
		for w := 0; w < nw; w++ {
			close(work[w])
		}
		lifetime.Wait()
	}()

	remaining := n
	weight := int64(n + arcs)
	sp := newShardPlan(t, nw, !tune.NoSticky)
	var stats Stats
	for r := 1; remaining > 0; r++ {
		if r > maxRounds {
			return stats, inbox, next, maxRoundsErr(maxRounds)
		}
		// Cancellation point: see runWord.
		if cerr := ctl.Err(); cerr != nil {
			return stats, inbox, next, cerr
		}
		stats.Rounds = r
		// Dense rounds clear the consumed plane wholesale instead of the
		// workers masking out one row per node (and paying boundary
		// atomics), and pull; see bitPass.begin.
		pass.begin(r, inbox, next, &dead, weight)
		// Tiled block: once the residue is sparse (per-row clearing already
		// wins) and splits into cache-budget components, run up to tileR
		// rounds tile-by-tile with no global barrier between them. Tiles read
		// the plane, so a round that gathers cannot start one.
		if tileR >= 2 && !pass.wholesale && !pass.gather {
			blockR := tileR
			if m := maxRounds - r + 1; blockR > m {
				blockR = m
			}
			if blockR >= 2 && tiler.plan(active, remaining, done) {
				// Force the delivery-table copy now so concurrent in-tile
				// kills are race-free (see deadDeliver.materialize).
				dead.materialize()
				ts.reset(t, nodes, pass.casters, active, done, &dead, inbox, next, tiler, r, blockR, pass.par, pass.pf, ndCap)
				wake := nw
				if wake > len(tiler.tiles) {
					wake = len(tiler.tiles)
				}
				for w := 0; w < wake; w++ {
					barrier.Add(1)
					work[w] <- shard{lo: -1, hi: -1}
				}
				barrier.Wait()
				var firstErr error
				errNode := -1
				// executed is the number of global rounds the block stands
				// for: the max local round any tile reached (a tile stops
				// early only when all its nodes terminated).
				executed := 1
				for w := 0; w < wake; w++ {
					stats.Messages += workers[w].msgs
					workers[w].msgs = 0
					if workers[w].tileExec > executed {
						executed = workers[w].tileExec
					}
					workers[w].tileExec = 0
					if workers[w].err != nil && (errNode < 0 || workers[w].errNode < errNode) {
						firstErr = workers[w].err
						errNode = workers[w].errNode
					}
				}
				stats.Rounds = r + executed - 1
				if firstErr != nil {
					return stats, inbox, next, firstErr
				}
				// In-tile retirement already uncounted undeliverable rows,
				// cleared them and killed their arcs; only the active list
				// and the weight are compacted here.
				keep := active[:0]
				for _, v := range active[:remaining] {
					if !done[v] {
						keep = append(keep, v)
						continue
					}
					weight -= 1 + int64(t.off[v+1]-t.off[v])
				}
				remaining = len(keep)
				// plan reordered active[], so the cached shard carve no
				// longer balances; drop it.
				sp.invalidate()
				// Tiles swapped their local planes once per local round;
				// mirror the net parity globally.
				if executed&1 == 1 {
					inbox, next = next, inbox
				}
				r += executed - 1
				continue
			}
		}
		bounds := sp.shards(active, remaining, weight)
		launched := len(bounds) - 1
		for w := 0; w < launched; w++ {
			if bounds[w] == bounds[w+1] {
				continue
			}
			barrier.Add(1)
			work[w] <- shard{bounds[w], bounds[w+1]}
		}
		barrier.Wait()
		pass.clearConsumed()
		var firstErr error
		errNode := -1
		roundMsgs := int64(0)
		finished := 0
		for w := 0; w < launched; w++ {
			roundMsgs += workers[w].msgs
			finished += workers[w].retired
			workers[w].msgs, workers[w].retired = 0, 0
			if workers[w].err != nil && (errNode < 0 || workers[w].errNode < errNode) {
				firstErr = workers[w].err
				errNode = workers[w].errNode
			}
		}
		stats.Messages += roundMsgs
		if firstErr != nil {
			return stats, inbox, next, firstErr
		}
		if finished == remaining && fs == nil {
			// The whole active set stopped: every message of this round went
			// to a node that is now retiring, so uncount them all and drop
			// them wholesale — no per-row count, clear or kill.
			stats.Messages -= roundMsgs
			next.clearAll()
			remaining = 0
			inbox, next = next, inbox
			continue
		}
		// Compact the active-set; see runWord for the invariant and
		// bitPass.retire for the pull round's share.
		pass.startCompaction()
		keep := active[:0]
		for _, v := range active[:remaining] {
			if !done[v] {
				keep = append(keep, v)
				continue
			}
			stats.Messages -= pass.retire(v)
			weight -= 1 + int64(t.off[v+1]-t.off[v])
			dead.kill(v)
			if fs != nil {
				fs.markDown(v)
			}
		}
		remaining = len(keep)
		if fs != nil {
			crashed := fs.boundaryBit(r, next, &stats)
			for _, v := range crashed {
				done[v] = true
				weight -= 1 + int64(t.off[v+1]-t.off[v])
				dead.kill(v)
			}
			if len(crashed) > 0 {
				keep = active[:0]
				for _, v := range active[:remaining] {
					if !done[v] {
						keep = append(keep, v)
					}
				}
				remaining = len(keep)
			}
		}
		inbox, next = next, inbox
		pass.end()
	}
	return stats, inbox, next, nil
}
