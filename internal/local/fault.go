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
//     bit-identical across engines. Workers never touch the fault state.
//
// One pass serves every plane: it reads and writes the next plane only
// through faultSlots, one slot per inbox arc, and reads the run's own dead
// set for the nodes that terminated or crashed.
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

// faultState is the per-run (per-trial, under BatchRun) fault machinery.
// Only the coordinator touches it, between rounds; the set of nodes that
// terminated or crashed is the run's own dead set, which the engine passes
// to each boundary. A run without active faults carries a nil *faultState
// and pays one nil check per boundary.
type faultState struct {
	t          *Topology
	dropK      uint64 // prob.KeyedStream(seed, faultKindDrop)
	delayK     uint64
	crashK     uint64
	dropT      uint64 // drop iff keyed bits < dropT
	crashT     uint64
	delay      int
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
	}
	if fs.dropT > 0 && fp.Delay > 0 {
		fs.delay = fp.Delay
		// Bucket b holds messages redelivered at boundary b mod (delay+1);
		// delays are ≥ 1, so the bucket being flushed is never appended to.
		fs.buckets = make([][]heldMsg, fs.delay+1)
	}
	return fs, nil
}

// pickCrashes draws the crash-stop decisions for the given round over the
// nodes not yet dead and returns them (in ascending node order, reusing an
// internal buffer). Marking them dead, stats accounting and row cleanup are
// the callers'.
func (fs *faultState) pickCrashes(round int, dead []bool) []int32 {
	if fs.crashT == 0 {
		return nil
	}
	roundK := prob.KeyedAt(fs.crashK, uint64(round))
	crashed := fs.crashedBuf[:0]
	n := int32(fs.t.N())
	for v := int32(0); v < n; v++ {
		if !dead[v] && prob.KeyedAt(roundK, uint64(v)) < fs.crashT {
			crashed = append(crashed, v)
		}
	}
	fs.crashedBuf = crashed
	return crashed
}

// faultSlots is the fault pass's view of a run's next plane: one slot per
// inbox arc, indexed like the topology's arcs, so every plane sees the same
// fault decisions. The boxed plane, a word trial's region of the word plane
// and a bit trial's packed plane implement it.
type faultSlots interface {
	full(i int32) bool    // slot i holds a message
	take(i int32) heldMsg // empty slot i and return its message (recv unset)
	put(h heldMsg)        // write h back into its empty slot h.arc
}

// boxedSlots is the boxed loop's next plane.
type boxedSlots []Message

func (s boxedSlots) full(i int32) bool { return s[i] != nil }

func (s boxedSlots) take(i int32) heldMsg {
	m := s[i]
	s[i] = nil
	return heldMsg{arc: i, msg: m}
}

func (s boxedSlots) put(h heldMsg) { s[h.arc] = h.msg }

// wordSlots is a word trial's region of the word next plane.
type wordSlots []Word

func (s wordSlots) full(i int32) bool { return s[i] != NilWord }

func (s wordSlots) take(i int32) heldMsg {
	w := s[i]
	s[i] = NilWord
	return heldMsg{arc: i, val: uint64(w)}
}

func (s wordSlots) put(h heldMsg) { s[h.arc] = Word(h.val) }

// A bit plane's slot value is the whole lane, presence bit included. take
// and put are plain read-modify-writes of a word shared with neighbouring
// lanes: they race with nothing only at a round boundary.

func (pl bitPlane) full(i int32) bool {
	j := uint32(i) << pl.width
	return pl.lanes[j>>6]>>(j&63)&1 != 0
}

func (pl bitPlane) take(i int32) heldMsg {
	j := uint32(i) << pl.width
	m := uint64(1)<<(1<<pl.width) - 1
	lane := pl.lanes[j>>6] >> (j & 63) & m
	pl.lanes[j>>6] &^= m << (j & 63)
	return heldMsg{arc: i, val: lane}
}

func (pl bitPlane) put(h heldMsg) {
	j := uint32(h.arc) << pl.width
	m := uint64(1)<<(1<<pl.width) - 1
	pl.lanes[j>>6] = pl.lanes[j>>6]&^(m<<(j&63)) | h.val<<(j&63)
}

// boundary runs the fault pass over the next plane after round r; see the
// file comment for the pass order. dead holds the nodes that terminated in
// round r or earlier or crashed before it; the pass only reads it. It
// returns the nodes crashed for round r+1, which the engine must retire
// exactly like same-round terminators, dead flag included.
func (fs *faultState) boundary(r int, next faultSlots, dead []bool, stats *Stats) []int32 {
	t := fs.t
	if fs.dropT > 0 {
		dropR := prob.KeyedAt(fs.dropK, uint64(r))
		delayR := prob.KeyedAt(fs.delayK, uint64(r))
		n := int32(t.N())
		for w := int32(0); w < n; w++ {
			if dead[w] {
				continue
			}
			for i := t.off[w]; i < t.off[w+1]; i++ {
				// The keyed draw is inlined and the slot test is not, so
				// draw first: only the slots it drops pay the test.
				if prob.KeyedAt(dropR, uint64(i)) >= fs.dropT || !next.full(i) {
					continue
				}
				h := next.take(i)
				stats.Messages--
				if fs.buckets != nil {
					d := 1 + int(prob.KeyedAt(delayR, uint64(i))%uint64(fs.delay))
					b := (r + d) % (fs.delay + 1)
					h.recv = w
					fs.buckets[b] = append(fs.buckets[b], h)
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
			if dead[h.recv] || next.full(h.arc) {
				stats.Dropped++
				continue
			}
			next.put(h)
			stats.Messages++
		}
		fs.buckets[b] = fs.buckets[b][:0]
	}
	crashed := fs.pickCrashes(r+1, dead)
	for _, v := range crashed {
		for i := t.off[v]; i < t.off[v+1]; i++ {
			if next.full(i) {
				next.take(i)
				stats.Messages--
				stats.Dropped++
			}
		}
	}
	stats.Crashed += len(crashed)
	return crashed
}
