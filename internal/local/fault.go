package local

// This file implements deterministic fault injection: seeded message drops,
// bounded redelivery delay, and crash-stop node failures, layered under every
// engine and every message plane.
//
// The design constraint is the repository's determinism discipline: a faulty
// run must be bit-identical across the boxed reference loop and the batch
// loops, every plane, and every worker count. Two properties give that by
// construction:
//
//   - Every fault decision is a pure function of the fault seed, a stable
//     index (the inbox arc slot for message faults, the topology node index
//     for crashes) and the round number — the same keyed-stream derivation
//     per-node randomness uses (prob.KeyedStream/KeyedAt), never a draw from
//     sequential stream state that scheduling could reorder.
//   - Faults are applied only at round boundaries, in the engines'
//     single-threaded coordinator sections, where the next plane is already
//     bit-identical across engines. Workers touch the fault state only to
//     mark their own shard's retirees down at compaction (markDown).
//
// Per boundary (after round r has executed and nodes that terminated in
// round r have been retired) the pass runs in a fixed order:
//
//  1. Drop scan: every present slot of the next plane is dropped with
//     probability Drop, keyed by (seed, arc, r). With Delay > 0 the dropped
//     message is queued for redelivery 1..Delay rounds later (the delay is
//     keyed the same way); with Delay == 0 it is lost.
//  2. Redelivery: messages queued for this boundary are written back into
//     their original slot. A redelivered message is not scanned again, so
//     delivery delay is bounded by Delay. If the slot is occupied by a
//     fresher message, or the receiver has terminated or crashed, the held
//     message is dropped instead.
//  3. Crash-stop: every still-running node crashes with probability Crash,
//     keyed by (seed, node, r+1). A crashed node halts permanently — its
//     engine retires it exactly like a terminated node (it stops executing
//     and arcs toward it go dead) — and the pending messages in its inbox
//     row are dropped. Crash-stop differs from termination only in who
//     decided: termination is the program's choice and its last sends stand;
//     a crash is the environment's and the node simply stops.
//
// When no fault plan is active the engines carry a nil *faultState and the
// hot paths are untouched: golden traces and the zero-allocation pins are
// byte-identical to a build without this file.

import (
	"fmt"

	"repro/internal/prob"
)

// FaultPlan is a seeded, keyed fault model for a run. The zero value (and
// any plan with Drop and Crash both zero) injects nothing.
type FaultPlan struct {
	// Seed seeds the fault streams. Distinct from Options.Source: the same
	// algorithmic randomness can be replayed under different fault schedules
	// and vice versa.
	Seed uint64
	// Drop is the per-message drop probability in [0, 1], applied once to
	// every delivered message at the round boundary it was sent in.
	Drop float64
	// Delay bounds redelivery: a dropped message is redelivered 1..Delay
	// rounds late instead of lost. 0 means dropped messages are lost.
	Delay int
	// Crash is the per-round crash-stop probability in [0, 1] of every
	// still-running node.
	Crash float64
}

// Active reports whether the plan injects any fault.
func (fp FaultPlan) Active() bool { return fp.Drop > 0 || fp.Crash > 0 }

// Validate checks the plan's parameter ranges: probabilities in [0, 1]
// and a nonnegative delay. Engines validate on every run; CLIs call it to
// reject bad flags before building an instance.
func (fp FaultPlan) Validate() error {
	if !(fp.Drop >= 0 && fp.Drop <= 1) {
		return fmt.Errorf("local: fault drop probability %v outside [0, 1]", fp.Drop)
	}
	if !(fp.Crash >= 0 && fp.Crash <= 1) {
		return fmt.Errorf("local: fault crash probability %v outside [0, 1]", fp.Crash)
	}
	if fp.Delay < 0 {
		return fmt.Errorf("local: fault delay %d is negative", fp.Delay)
	}
	return nil
}

// Fault-stream kinds: each fault decision family draws from its own keyed
// stream so that, e.g., enabling crashes does not perturb which messages
// drop.
const (
	faultKindDrop  = 1 // (arc, round): does this delivered message drop?
	faultKindDelay = 2 // (arc, round): how late does a dropped message arrive?
	faultKindCrash = 3 // (node, round): does this node crash-stop?
)

// probThreshold converts a probability to a 64-bit threshold: an event with
// 64 keyed uniform bits h fires iff h < probThreshold(p). Scaling by 2^63
// and doubling avoids the float→uint64 overflow at p near 1; the lost low
// bit is 2⁻⁶³ of probability.
func probThreshold(p float64) uint64 {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return ^uint64(0)
	}
	return uint64(p*(1<<63)) << 1
}

// heldMsg is one dropped-for-redelivery message: its inbox slot, its
// receiver, and its payload in whichever representation the run's plane
// uses (val for word and bit runs, msg for boxed runs).
type heldMsg struct {
	arc  int32
	recv int32
	val  uint64
	msg  Message
}

// faultState is the per-run (per-trial, under BatchRun) fault machinery. It
// is touched only between rounds: by the coordinator, except that the units
// of a compaction mark their own retirees down (markDown writes one node's
// flag). A run without active faults carries a nil *faultState and pays one
// nil check per boundary.
type faultState struct {
	t          *Topology
	dropK      uint64 // prob.KeyedStream(seed, faultKindDrop)
	delayK     uint64
	crashK     uint64
	dropT      uint64 // drop iff keyed bits < dropT
	crashT     uint64
	delay      int
	down       []bool // nodes that terminated or crashed
	buckets    [][]heldMsg
	crashedBuf []int32
}

// newFaultState compiles a plan, or returns nil when the plan injects
// nothing (including a nil plan) so the engines skip the boundary pass
// entirely.
func newFaultState(t *Topology, fp *FaultPlan) (*faultState, error) {
	if fp == nil || !fp.Active() {
		if fp != nil {
			if err := fp.Validate(); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}
	if err := fp.Validate(); err != nil {
		return nil, err
	}
	fs := &faultState{
		t:      t,
		dropK:  prob.KeyedStream(fp.Seed, faultKindDrop),
		delayK: prob.KeyedStream(fp.Seed, faultKindDelay),
		crashK: prob.KeyedStream(fp.Seed, faultKindCrash),
		dropT:  probThreshold(fp.Drop),
		crashT: probThreshold(fp.Crash),
		down:   make([]bool, t.N()),
	}
	if fs.dropT > 0 && fp.Delay > 0 {
		fs.delay = fp.Delay
		// Bucket b holds messages redelivered at boundary b mod (delay+1);
		// delays are ≥ 1, so the bucket being flushed is never appended to.
		fs.buckets = make([][]heldMsg, fs.delay+1)
	}
	return fs, nil
}

// markDown records that node v terminated (engines call it exactly where
// they set dead[v] / kill(v) for same-round terminators, before the boundary
// pass runs). Redeliveries to down nodes are dropped and down rows are
// skipped by the drop scan.
func (fs *faultState) markDown(v int32) { fs.down[v] = true }

// pickCrashes draws the crash-stop decisions for the given round over the
// still-running nodes, marks them down, and returns them (in ascending node
// order, reusing an internal buffer). Stats accounting and row cleanup are
// the callers'; engine bookkeeping (active sets, channels, delivery tables)
// is the engines'.
func (fs *faultState) pickCrashes(round int) []int32 {
	if fs.crashT == 0 {
		return nil
	}
	roundK := prob.KeyedAt(fs.crashK, uint64(round))
	crashed := fs.crashedBuf[:0]
	n := int32(fs.t.N())
	for v := int32(0); v < n; v++ {
		if fs.down[v] || prob.KeyedAt(roundK, uint64(v)) >= fs.crashT {
			continue
		}
		fs.down[v] = true
		crashed = append(crashed, v)
	}
	fs.crashedBuf = crashed
	return crashed
}

// boundaryBoxed runs the fault pass over the boxed loop's next plane after
// round r; see the file comment for the pass order. It returns the nodes
// crashed for round r+1, which the engine must retire exactly like
// same-round terminators.
func (fs *faultState) boundaryBoxed(r int, next []Message, stats *Stats) []int32 {
	t := fs.t
	if fs.dropT > 0 {
		dropR := prob.KeyedAt(fs.dropK, uint64(r))
		delayR := prob.KeyedAt(fs.delayK, uint64(r))
		n := int32(t.N())
		for w := int32(0); w < n; w++ {
			if fs.down[w] {
				continue
			}
			for i := t.off[w]; i < t.off[w+1]; i++ {
				m := next[i]
				if m == nil || prob.KeyedAt(dropR, uint64(i)) >= fs.dropT {
					continue
				}
				next[i] = nil
				stats.Messages--
				if fs.buckets != nil {
					d := 1 + int(prob.KeyedAt(delayR, uint64(i))%uint64(fs.delay))
					b := (r + d) % (fs.delay + 1)
					fs.buckets[b] = append(fs.buckets[b], heldMsg{arc: i, recv: w, msg: m})
					stats.Delayed++
				} else {
					stats.Dropped++
				}
			}
		}
	}
	if fs.buckets != nil {
		b := r % (fs.delay + 1)
		for _, h := range fs.buckets[b] {
			if fs.down[h.recv] || next[h.arc] != nil {
				stats.Dropped++
				continue
			}
			next[h.arc] = h.msg
			stats.Messages++
		}
		fs.buckets[b] = fs.buckets[b][:0]
	}
	crashed := fs.pickCrashes(r + 1)
	for _, v := range crashed {
		for i := t.off[v]; i < t.off[v+1]; i++ {
			if next[i] != nil {
				next[i] = nil
				stats.Messages--
				stats.Dropped++
			}
		}
	}
	stats.Crashed += len(crashed)
	return crashed
}

// boundaryWord is boundaryBoxed over a word next plane (the trial's region
// starts at base).
func (fs *faultState) boundaryWord(r int, next []Word, base int, stats *Stats) []int32 {
	t := fs.t
	if fs.dropT > 0 {
		dropR := prob.KeyedAt(fs.dropK, uint64(r))
		delayR := prob.KeyedAt(fs.delayK, uint64(r))
		n := int32(t.N())
		for w := int32(0); w < n; w++ {
			if fs.down[w] {
				continue
			}
			for i := t.off[w]; i < t.off[w+1]; i++ {
				m := next[base+int(i)]
				if m == NilWord || prob.KeyedAt(dropR, uint64(i)) >= fs.dropT {
					continue
				}
				next[base+int(i)] = NilWord
				stats.Messages--
				if fs.buckets != nil {
					d := 1 + int(prob.KeyedAt(delayR, uint64(i))%uint64(fs.delay))
					b := (r + d) % (fs.delay + 1)
					fs.buckets[b] = append(fs.buckets[b], heldMsg{arc: i, recv: w, val: uint64(m)})
					stats.Delayed++
				} else {
					stats.Dropped++
				}
			}
		}
	}
	if fs.buckets != nil {
		b := r % (fs.delay + 1)
		for _, h := range fs.buckets[b] {
			if fs.down[h.recv] || next[base+int(h.arc)] != NilWord {
				stats.Dropped++
				continue
			}
			next[base+int(h.arc)] = Word(h.val)
			stats.Messages++
		}
		fs.buckets[b] = fs.buckets[b][:0]
	}
	crashed := fs.pickCrashes(r + 1)
	for _, v := range crashed {
		for i := t.off[v]; i < t.off[v+1]; i++ {
			if next[base+int(i)] != NilWord {
				next[base+int(i)] = NilWord
				stats.Messages--
				stats.Dropped++
			}
		}
	}
	stats.Crashed += len(crashed)
	return crashed
}

// lane returns the packed lane of arc slot i (presence bit and value).
func (pl bitPlane) lane(i int32) uint64 {
	j := uint32(i) << pl.width
	return pl.lanes[j>>6] >> (j & 63) & (uint64(1)<<(1<<pl.width) - 1)
}

// setLane overwrites the packed lane of arc slot i. Coordinator-only: the
// plain read-modify-write races with nothing at a round boundary.
func (pl bitPlane) setLane(i int32, lane uint64) {
	j := uint32(i) << pl.width
	m := (uint64(1)<<(1<<pl.width) - 1) << (j & 63)
	pl.lanes[j>>6] = pl.lanes[j>>6]&^m | lane<<(j&63)
}

// boundaryBit is boundaryBoxed over a packed bit next plane (under BatchRun,
// the trial's own region viewed as a standalone plane). Fault decisions key
// on the same arc slot indices as the other planes, so a program that runs
// on several planes sees identical faults on all of them.
func (fs *faultState) boundaryBit(r int, next bitPlane, stats *Stats) []int32 {
	t := fs.t
	if fs.dropT > 0 {
		dropR := prob.KeyedAt(fs.dropK, uint64(r))
		delayR := prob.KeyedAt(fs.delayK, uint64(r))
		n := int32(t.N())
		for w := int32(0); w < n; w++ {
			if fs.down[w] {
				continue
			}
			for i := t.off[w]; i < t.off[w+1]; i++ {
				lane := next.lane(i)
				if lane&1 == 0 || prob.KeyedAt(dropR, uint64(i)) >= fs.dropT {
					continue
				}
				next.setLane(i, 0)
				stats.Messages--
				if fs.buckets != nil {
					d := 1 + int(prob.KeyedAt(delayR, uint64(i))%uint64(fs.delay))
					b := (r + d) % (fs.delay + 1)
					fs.buckets[b] = append(fs.buckets[b], heldMsg{arc: i, recv: w, val: lane})
					stats.Delayed++
				} else {
					stats.Dropped++
				}
			}
		}
	}
	if fs.buckets != nil {
		b := r % (fs.delay + 1)
		for _, h := range fs.buckets[b] {
			if fs.down[h.recv] || next.lane(h.arc)&1 != 0 {
				stats.Dropped++
				continue
			}
			next.setLane(h.arc, h.val)
			stats.Messages++
		}
		fs.buckets[b] = fs.buckets[b][:0]
	}
	crashed := fs.pickCrashes(r + 1)
	for _, v := range crashed {
		lo, hi := t.off[v], t.off[v+1]
		if k := next.countRow(lo, hi); k > 0 {
			stats.Messages -= k
			stats.Dropped += k
			next.clearRow(lo, hi, false)
		}
	}
	stats.Crashed += len(crashed)
	return crashed
}
