package local

import "sync/atomic"

// Tiled (shard × round) execution for the packed bit planes.
//
// Once a run's active residue has shattered into small connected components
// — the normal end-game of the paper's shattering algorithms — streaming
// the whole plane once per round wastes the caches: each row is touched
// once and evicted before the next round returns to it. A tile is a group
// of connected components of the live subgraph whose combined weight
// (1+deg per node, proportional to its plane-row bytes) fits a per-worker
// cache budget. Because components are closed under the live adjacency,
// tiles exchange no messages, so one worker can legally run R rounds of
// its tile back-to-back — rows stay L2-resident across all R rounds — while
// another worker is rounds ahead on a different tile. If any single
// component overflows the budget, boundary traffic would dominate and the
// planner refuses: the block falls back to ordinary one-round execution.
//
// Everything observable is preserved: per-node round numbers, delivered
// message sets, Stats counters, and termination bookkeeping are identical
// to the untiled schedule because no information ever crosses a tile
// boundary. Tiling only runs when faults and run-control are absent (both
// need a global round barrier) and wholesale clearing is off (tiles imply
// a sparse residue, where per-row clears win anyway).

// bitTile is a [lo, hi) range of the component-reordered active slice.
type bitTile struct {
	lo, hi int
}

// bitTiler plans tiles for a block of rounds. All scratch is retained
// across plans so steady-state planning allocates nothing.
type bitTiler struct {
	t            *Topology
	budget       int64
	visited      []int32 // epoch marks, indexed by node
	epoch        int32
	queue        []int32
	order        []int32 // component-ordered rewrite of the active prefix
	tiles        []bitTile
	maxTileNodes int
	// lastRemaining/lastOK memoize the previous plan: while no node
	// terminates, the component structure cannot change, so neither can
	// the answer (and on success active[] is already component-ordered).
	lastRemaining int
	lastOK        bool
}

func newBitTiler(t *Topology, budget int64) *bitTiler {
	n := len(t.off) - 1
	return &bitTiler{
		t:             t,
		budget:        budget,
		visited:       make([]int32, n),
		order:         make([]int32, 0, n),
		lastRemaining: -1,
	}
}

// plan partitions the live subgraph under active[:remaining] into tiles,
// reordering active in place so each tile is a contiguous range. It
// returns false — leaving active untouched — when any single component
// overflows the budget (the R=1 fallback).
func (tl *bitTiler) plan(active []int32, remaining int, done []bool) bool {
	if remaining == tl.lastRemaining {
		return tl.lastOK
	}
	tl.lastRemaining = remaining
	tl.lastOK = false
	t := tl.t
	tl.epoch++
	ep := tl.epoch
	order := tl.order[:0]
	tl.tiles = tl.tiles[:0]
	tl.maxTileNodes = 0
	var tileWeight int64
	tileLo := 0
	for _, seed := range active[:remaining] {
		if tl.visited[seed] == ep {
			continue
		}
		// BFS one connected component of the live subgraph.
		compLo := len(order)
		var compWeight int64
		q := append(tl.queue[:0], seed)
		tl.visited[seed] = ep
		for head := 0; head < len(q); head++ {
			v := q[head]
			order = append(order, v)
			compWeight += 1 + int64(t.off[v+1]-t.off[v])
			for i := t.off[v]; i < t.off[v+1]; i++ {
				w := t.adj[i]
				if tl.visited[w] == ep || done[w] {
					continue
				}
				tl.visited[w] = ep
				q = append(q, w)
			}
		}
		tl.queue = q[:0]
		if compWeight > tl.budget {
			tl.order = order[:0]
			return false
		}
		if tileWeight+compWeight > tl.budget && tileWeight > 0 {
			tl.closeTile(tileLo, compLo)
			tileLo, tileWeight = compLo, 0
		}
		tileWeight += compWeight
	}
	tl.closeTile(tileLo, len(order))
	copy(active[:remaining], order)
	tl.order = order[:0]
	tl.lastOK = true
	return true
}

func (tl *bitTiler) closeTile(lo, hi int) {
	if hi == lo {
		return
	}
	tl.tiles = append(tl.tiles, bitTile{lo: lo, hi: hi})
	if hi-lo > tl.maxTileNodes {
		tl.maxTileNodes = hi - lo
	}
}

// bitTileState is the coordinator→worker contract for one tiled block. A
// single instance lives for the whole run; the coordinator rewrites its
// fields before waking workers (the work-channel send publishes them) and
// workers claim tiles from the shared cursor, so a fast worker drains many
// tiles while a slow one finishes its first.
type bitTileState struct {
	t          *Topology
	nodes      []BitNode
	casters    []BitBroadcaster
	active     []int32
	done       []bool
	dead       *deadDeliver
	deliver    []int32
	inbox      bitPlane
	next       bitPlane
	tiles      []bitTile
	firstRound int
	rounds     int
	par        bool
	pf         int
	ndCap      int
	cursor     atomic.Int64
}

// reset rewrites the state for one block. The coordinator calls it before
// waking workers; the work-channel sends publish the fields.
func (ts *bitTileState) reset(t *Topology, nodes []BitNode, casters []BitBroadcaster, active []int32, done []bool, dead *deadDeliver, inbox, next bitPlane, tiler *bitTiler, firstRound, rounds int, par bool, pf, ndCap int) {
	ts.t = t
	ts.nodes = nodes
	ts.casters = casters
	ts.active = active
	ts.done = done
	ts.dead = dead
	ts.deliver = dead.table()
	ts.inbox = inbox
	ts.next = next
	ts.tiles = tiler.tiles
	ts.firstRound = firstRound
	ts.rounds = rounds
	ts.par = par
	ts.pf = pf
	ts.ndCap = ndCap
	ts.cursor.Store(0)
}

// tileGuard tracks the node and round a worker is executing so a program
// panic can be attributed; shared by pointer with the recover handler.
type tileGuard struct {
	curV int
	curR int
}

// drainTiles claims and runs tiles until none remain, reusing (and
// returning) the worker's retirement buffer nd.
func (ts *bitTileState) drainTiles(st *poolWorker, send BitRow, nd []int32) []int32 {
	if cap(nd) < ts.ndCap {
		//lint:alloc once per worker: sized to the run-invariant tile-node
		// bound, then reused across every tiled block of the run
		nd = make([]int32, 0, ts.ndCap)
	}
	g := tileGuard{curV: -1, curR: ts.firstRound}
	defer func() {
		if p := recover(); p != nil {
			st.err = newPanicError(g.curV, g.curR, p)
			st.errNode = g.curV
		}
	}()
	for {
		i := int(ts.cursor.Add(1)) - 1
		if i >= len(ts.tiles) {
			return nd
		}
		ts.runTile(ts.tiles[i], send, nd, st, &g)
	}
}

// runTile executes up to ts.rounds rounds of one tile back-to-back,
// applying retirement (row uncount + clear + arc kill) locally at every
// local round boundary so later local rounds see exactly the state the
// untiled schedule would have produced.
func (ts *bitTileState) runTile(tile bitTile, send BitRow, nd []int32, st *poolWorker, g *tileGuard) {
	t := ts.t
	cur, nxt := ts.inbox, ts.next
	left := tile.hi - tile.lo
	for rr := 0; rr < ts.rounds && left > 0; rr++ {
		r := ts.firstRound + rr
		g.curR = r
		nd = nd[:0]
		var msgs int64
		//splitlint:zeroalloc
		for i := tile.lo; i < tile.hi; i++ {
			v := int(ts.active[i])
			if ts.done[v] {
				continue
			}
			g.curV = v
			lo, hi := t.off[v], t.off[v+1]
			if ts.pf > 0 {
				prefetchBitTargets(ts.deliver, nxt, lo, hi, ts.pf)
			}
			var fin bool
			if c := caster(ts.casters, v); c != nil {
				val, cast, cfin := c.CastB(r, cur.row(lo, hi))
				if cast {
					msgs += castBitRow(ts.deliver, nxt, lo, hi, val, ts.par)
				}
				fin = cfin
			} else {
				row := send.ports(int(hi - lo))
				fin = ts.nodes[v].RoundB(r, cur.row(lo, hi), row)
				msgs += scatterBitRow(ts.deliver, nxt, lo, row, ts.par)
			}
			cur.clearRow(lo, hi, ts.par)
			if fin {
				ts.done[v] = true
				//lint:alloc amortized: capacity preallocated in drainTiles
				nd = append(nd, int32(v))
				left--
			}
		}
		g.curV = -1
		// Local retirement — the coordinator's per-round compaction applied
		// in-tile. Counting must be atomic under par: a retiring row can
		// share a plane word with a neighboring tile another worker is
		// scattering into. kill() is safe concurrently because the deliver
		// table is materialized before dispatch and a node's inbox slots
		// are written only from inside its own (closed) tile.
		for _, v := range nd {
			lo, hi := t.off[v], t.off[v+1]
			if ts.par {
				msgs -= nxt.countRowAtomic(lo, hi)
			} else {
				msgs -= nxt.countRow(lo, hi)
			}
			nxt.clearRow(lo, hi, ts.par)
			ts.dead.kill(v)
		}
		st.msgs += msgs
		if rr+1 > st.tileExec {
			st.tileExec = rr + 1
		}
		cur, nxt = nxt, cur
	}
}
