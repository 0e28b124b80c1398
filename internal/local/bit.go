package local

// This file defines the bit-packed message plane — the bandwidth-matched
// fast path of every engine, one rung below the word plane. The paper's
// headline algorithms exchange one- and two-bit messages (weak-splitting
// votes, retry bits, shattering trits), yet on the word plane every arc
// still carries a full 64-bit Word per round: at 1M nodes / 3M edges each
// double-buffered plane is ~48 MB and every round streams it through DRAM.
// Packing the messages 32-per-uint64 shrinks a plane to 2–4 bits per arc —
// LLC-resident even at million-node scale — so the simulator's cost model
// finally matches the paper's bandwidth model and the scatter's random
// access hits cache instead of memory.
//
// A bit message is a (presence, value) pair packed into one lane: bit 0 of
// the lane is the presence bit — it distinguishes "sent 0" from silence,
// the role NilWord plays on the word plane — and the bits above it hold the
// value. 1-bit programs use 2-bit lanes (2 bits per arc); 2-bit (trit)
// programs use 4-bit lanes, the extra pad bit keeping lanes power-of-two so
// they never straddle a word. Delivery, termination and Stats semantics are
// exactly those of the boxed and word paths: a delivered message is a
// present lane addressed to a node that has not already terminated.
//
// Concurrency discipline. Unlike the word plane, adjacent nodes' rows can
// share a uint64 of the packed plane, so concurrent workers cannot rely
// on slot ownership alone:
//
//   - reads from a shared plane always go through atomic loads (free on the
//     architectures we run on);
//   - deliveries into the next plane use one atomic OR per message on a
//     multi-worker pool (a lane is zero until its unique writer delivers, so
//     OR writes presence and value together) and plain OR on a one-worker
//     pool, whose single worker owns every plane word;
//   - a consumed row is cleared by its owner with plain stores on its
//     interior words and atomic AND-NOT on the (at most two) words shared
//     with neighboring rows;
//   - send scratch rows are word-aligned and private to one worker or node,
//     so programs write them with plain stores.
//
// That is push delivery. In dense fault-free rounds the bit loop delivers
// fused broadcasts (BitBroadcaster) by pull instead: a caster stores its
// lane in its own byte of castSlots with a plain store, and next round's
// receivers gather their rows from their neighbors' slots into private,
// word-aligned scratch — no atomic OR, and no plane line written by two
// cores. Nodes without CastB keep pushing, and gathers OR their pushes in.
// Slots are written only by their node's owner and read only in the
// following round, so the round barrier orders every access.

import (
	"math/bits"
	"sync/atomic"
)

// BitRow is a packed view of one node's inbox or outbox: port p occupies
// one lane of 2·Width() bits (presence bit plus value bits, see the file
// comment). The presence bit distinguishes "sent 0" from silence. Rows are
// engine-owned views into shared planes (recv) or private scratch (send)
// and are valid only for the duration of the RoundB call.
type BitRow struct {
	lanes []uint64
	lo    uint32 // lane index of port 0 within the plane
	n     uint32 // number of ports
	width uint32 // value width in bits (1 or 2); lanes are 2*width bits
}

// Bit2Row is a BitRow whose value lanes are 2 bits wide — the variant that
// carries trits and small enums (see Bit2Node). The alias exists for
// signature readability; the representation is identical.
type Bit2Row = BitRow

// laneBits returns the packed lane width: presence bit + value bits,
// padded to a power of two so lanes never straddle words. For the two
// widths in use, log2(laneBits) == width (2-bit lanes at width 1, 4-bit at
// width 2), so the hot paths shift by width instead of multiplying or —
// fatally, in the scatter loop — dividing by a variable.
func (b BitRow) laneBits() uint32 { return 1 << b.width }

// Len returns the number of ports.
func (b BitRow) Len() int { return int(b.n) }

// Width returns the value width in bits.
func (b BitRow) Width() int { return int(b.width) }

// Has reports whether port p holds a message (recv) or has one staged
// (send). On a silent port the value is zero.
func (b BitRow) Has(p int) bool {
	j := (b.lo + uint32(p)) << b.width
	return atomic.LoadUint64(&b.lanes[j>>6])>>(j&63)&1 != 0
}

// Get returns port p's value. Lanes never straddle words, so one load
// suffices.
func (b BitRow) Get(p int) uint64 {
	j := (b.lo + uint32(p)) << b.width
	return atomic.LoadUint64(&b.lanes[j>>6]) >> (j&63 + 1) & (1<<b.width - 1)
}

// Lane returns port p's value and presence with a single load — the
// accessor for scan loops that need both (Has followed by Get costs two).
func (b BitRow) Lane(p int) (v uint64, present bool) {
	j := (b.lo + uint32(p)) << b.width
	l := atomic.LoadUint64(&b.lanes[j>>6]) >> (j & 63)
	return l >> 1 & (1<<b.width - 1), l&1 != 0
}

// Int returns port p's value decoded as the signed value SetInt packed.
func (b BitRow) Int(p int) int { return LaneInt(b.Get(p)) }

// CountPresent returns the number of ports holding a message, whole words
// at a time — the packed plane's native aggregate (up to 32 ports per
// popcount). Typical rows span one or two words, so the single-word path
// is kept branch-light.
func (b BitRow) CountPresent() int {
	lo := int(b.lo) << b.width
	hi := int(b.lo+b.n) << b.width
	if lo >= hi {
		return 0
	}
	pres := laneMultiplier(b.laneBits())
	loW, hiW := lo>>6, (hi-1)>>6
	head := ^uint64(0) << (lo & 63)
	tail := ^uint64(0) >> (63 - (hi-1)&63)
	if loW == hiW {
		return bits.OnesCount64(atomic.LoadUint64(&b.lanes[loW]) & pres & head & tail)
	}
	c := bits.OnesCount64(atomic.LoadUint64(&b.lanes[loW])&pres&head) +
		bits.OnesCount64(atomic.LoadUint64(&b.lanes[hiW])&pres&tail)
	for w := loW + 1; w < hiW; w++ {
		c += bits.OnesCount64(atomic.LoadUint64(&b.lanes[w]) & pres)
	}
	return c
}

// CountValue returns the number of present ports whose value equals v
// (truncated to the value width), whole words at a time: each 64-bit word
// compares 16–32 lanes at once. Programs that tally message kinds — the
// shattering constraint counting colored neighbors, the verifier counting
// votes — stay word-parallel on the receive side with this.
func (b BitRow) CountValue(v uint64) int {
	lo := int(b.lo) << b.width
	hi := int(b.lo+b.n) << b.width
	if lo >= hi {
		return 0
	}
	lb := b.laneBits()
	pres := laneMultiplier(lb)
	cmp := (1 | v&(1<<b.width-1)<<1) * pres
	// collapse is OR-folding a lane onto its presence bit: after XOR with
	// cmp, a zero lane means "present with value v".
	collapse := uint32(1)
	if lb == 4 {
		collapse = 2
	}
	loW, hiW := lo>>6, (hi-1)>>6
	head := ^uint64(0) << (lo & 63)
	tail := ^uint64(0) >> (63 - (hi-1)&63)
	if loW == hiW {
		d := atomic.LoadUint64(&b.lanes[loW]) ^ cmp
		z := d | d>>1
		if collapse == 2 {
			z |= z >> 2
		}
		return bits.OnesCount64(^z & pres & head & tail)
	}
	c := 0
	for w := loW; w <= hiW; w++ {
		d := atomic.LoadUint64(&b.lanes[w]) ^ cmp
		z := d | d>>1
		if collapse == 2 {
			z |= z >> 2
		}
		m := pres
		if w == loW {
			m &= head
		}
		if w == hiW {
			m &= tail
		}
		c += bits.OnesCount64(^z & m)
	}
	return c
}

// AnyValue reports whether some present port carries value v.
func (b BitRow) AnyValue(v uint64) bool { return b.CountValue(v) > 0 }

// Set stages the message v (truncated to the value width) on port p of a
// send row. Send rows are private scratch, so plain stores suffice; Set
// must not be used on recv rows.
func (b BitRow) Set(p int, v uint64) {
	j := (b.lo + uint32(p)) << b.width
	m := uint64(1<<b.laneBits()-1) << (j & 63)
	b.lanes[j>>6] = b.lanes[j>>6]&^m | (1|v&(1<<b.width-1)<<1)<<(j&63)
}

// SetInt stages a signed value (zigzag-encoded, so the Uncolored = -1 trit
// costs two bits) on port p; decode with Int.
func (b BitRow) SetInt(p int, x int) { b.Set(p, IntLane(x)) }

// Broadcast stages v on every port of a send row (overwriting anything
// staged before), whole words at a time: the common one- or two-word row
// costs a handful of instructions.
//
//splitlint:zeroalloc
func (b BitRow) Broadcast(v uint64) {
	lo := int(b.lo) << b.width
	hi := int(b.lo+b.n) << b.width
	if lo >= hi {
		return
	}
	pat := (1 | v&(1<<b.width-1)<<1) * laneMultiplier(b.laneBits())
	loW, hiW := lo>>6, (hi-1)>>6
	head := ^uint64(0) << (lo & 63)
	tail := ^uint64(0) >> (63 - (hi-1)&63)
	if loW == hiW {
		m := head & tail
		b.lanes[loW] = b.lanes[loW]&^m | pat&m
		return
	}
	b.lanes[loW] = b.lanes[loW]&^head | pat&head
	b.lanes[hiW] = b.lanes[hiW]&^tail | pat&tail
	for w := loW + 1; w < hiW; w++ {
		b.lanes[w] = pat
	}
}

// clear zeroes the row in place; atomicEdge selects atomic AND-NOT for the
// boundary words shared with adjacent rows (required on the parallel
// engines, where neighbors' owners clear concurrently).
func (b BitRow) clear(atomicEdge bool) {
	lb := b.laneBits()
	clearBitRange(b.lanes, int(b.lo*lb), int((b.lo+b.n)*lb), atomicEdge)
}

// ports returns the scratch row viewed at deg ports (the backing must cover
// at least deg); the per-worker send scratch is sized once at maxDeg.
func (b BitRow) ports(deg int) BitRow { b.n = uint32(deg); return b }

// laneMultiplier returns the word with a 1 in the lowest bit of every lane,
// so value * laneMultiplier replicates a lane across a word.
func laneMultiplier(laneBits uint32) uint64 {
	if laneBits == 2 {
		return 0x5555555555555555
	}
	return 0x1111111111111111
}

// IntLane zigzag-encodes a small signed value into a value lane: 0, -1, 1,
// -2, ... become 0, 1, 2, 3, ... so the splitting trits {Uncolored=-1,
// Red=0, Blue=1} fit 2-bit values. The inverse of LaneInt, and the same
// encoding MakeIntWord uses for word payloads.
func IntLane(x int) uint64 { return uint64(x)<<1 ^ uint64(x>>63) }

// LaneInt decodes a zigzag-encoded value lane.
func LaneInt(v uint64) int { return int(v>>1) ^ -int(v&1) }

// BitNode is the bit-plane fast path of the engines: a per-node program
// whose messages are single bits plus a presence bit. RoundB is called once
// per synchronous round with recv a read-only view of the node's packed
// inbox row and send an all-clear scratch row; the program stages the
// messages it wants delivered per port (an un-Set port is silent) and
// returns whether it has terminated. Both rows are engine-owned and valid
// only for the duration of the call.
//
// Engines use this path only when every node of a run implements BitNode
// (and Options.Plane allows it); a mixed run falls one rung down the
// boxed ← word ← bit ladder — BitProgram adapters also implement WordNode,
// so a bit/word mix still avoids boxing. Termination, delivery and Stats
// semantics are exactly those of Node.Round.
type BitNode interface {
	RoundB(r int, recv, send BitRow) (done bool)
}

// Bit2Node marks a BitNode whose messages occupy 2-bit values (trits,
// joined/out enums). When any node of a run is a Bit2Node the planes are
// laid out at the wider lane; plain BitNodes on the same plane are
// unaffected (their values simply use the low bit of the wider lane).
type Bit2Node interface {
	BitNode
	Bit2()
}

// BitFunc adapts a closure to BitNode (1-bit values), for programs without
// per-node state. Wrap with BitProgram to obtain a Node for a Factory.
type BitFunc func(r int, recv, send BitRow) bool

// RoundB implements BitNode.
func (f BitFunc) RoundB(r int, recv, send BitRow) bool { return f(r, recv, send) }

// Bit2Func is BitFunc with 2-bit (trit) values.
type Bit2Func func(r int, recv, send Bit2Row) bool

// RoundB implements BitNode.
func (f Bit2Func) RoundB(r int, recv, send BitRow) bool { return f(r, recv, send) }

// Bit2 implements Bit2Node.
func (Bit2Func) Bit2() {}

// bitMsgTag is the word tag under which adapted bit messages travel when a
// run falls back to the word or boxed plane: the value rides in the
// payload, and the non-zero tag keeps "sent 0" distinct from NilWord.
const bitMsgTag = 1

// BitProgram adapts a BitNode to the boxed Node interface, so factories can
// return bit programs without engines or callers changing type. The
// adapter implements the whole plane ladder: engines on the bit path call
// RoundB directly (the fast path pays nothing for the wrapper), a word-
// plane run exchanges the values as MakeWord(1, value) words, and a boxed
// run boxes those same words.
func BitProgram(b BitNode) Node {
	if b2, ok := b.(Bit2Node); ok {
		a := &bit2Adapter{bitAdapter: bitAdapter{b: b2, width: 2}}
		a.wa.w = a
		return a
	}
	a := &bitAdapter{b: b, width: 1}
	a.wa.w = a
	return a
}

// bitAdapter implements Node, WordNode and BitNode over an underlying
// BitNode. The word shim reuses private scratch rows across rounds, so even
// the fallback paths allocate only what boxing itself requires.
type bitAdapter struct {
	b     BitNode
	width uint32
	recv  BitRow // scratch rows for the word/boxed shims, allocated on first use
	send  BitRow
	wa    wordAdapter // boxed shim: decodes boxed Words, then calls RoundW below
}

// bit2Adapter marks the adapter of a Bit2Node so asBitNodes sizes the
// planes at the wider lane.
type bit2Adapter struct{ bitAdapter }

// Bit2 implements Bit2Node.
func (*bit2Adapter) Bit2() {}

var (
	_ Node     = (*bitAdapter)(nil)
	_ WordNode = (*bitAdapter)(nil)
	_ BitNode  = (*bitAdapter)(nil)
	_ Bit2Node = (*bit2Adapter)(nil)
)

// RoundB implements BitNode by delegation; engines on the bit path call
// this directly and never touch the shims below.
func (a *bitAdapter) RoundB(r int, recv, send BitRow) bool {
	return a.b.RoundB(r, recv, send)
}

// RoundW implements WordNode: it unpacks received words into a scratch recv
// row, runs the bit program, and re-encodes the staged values as words.
func (a *bitAdapter) RoundW(r int, recv []Word, send []Word) bool {
	deg := len(recv)
	if a.recv.lanes == nil {
		a.recv = newBitScratch(deg, int(a.width))
		a.send = newBitScratch(deg, int(a.width))
	}
	for p, m := range recv {
		if m != NilWord {
			a.recv.Set(p, m.Payload())
		}
	}
	done := a.b.RoundB(r, a.recv.ports(deg), a.send.ports(deg))
	a.recv.ports(deg).clear(false)
	for p := 0; p < deg; p++ {
		if a.send.Has(p) {
			send[p] = MakeWord(bitMsgTag, a.send.Get(p))
		}
	}
	a.send.ports(deg).clear(false)
	return done
}

// Round implements Node via the boxed word shim: boxed Words in, boxed
// Words out, with RoundW above in the middle.
func (a *bitAdapter) Round(r int, recv []Message) ([]Message, bool) {
	return a.wa.Round(r, recv)
}

// asBitNodes returns the nodes viewed as BitNodes when every one of them
// implements the bit fast path, plus the plane's value width (2 when any
// node is a Bit2Node); otherwise it returns nil and the engines fall down
// the plane ladder. The check runs before the slice is allocated, so a
// non-bit run costs no allocation here.
func asBitNodes(nodes []Node) ([]BitNode, int) {
	width := 1
	for _, n := range nodes {
		if _, ok := n.(BitNode); !ok {
			return nil, 0
		}
		if _, ok := n.(Bit2Node); ok {
			width = 2
		}
	}
	bs := make([]BitNode, len(nodes))
	for i, n := range nodes {
		bs[i] = n.(BitNode)
	}
	return bs, width
}

// BitBroadcaster is the fused fast path for bit programs whose sends are
// whole-row broadcasts (Luby coins, verifier votes, zero-round proposals).
// CastB must be observationally identical to a RoundB that does
//
//	if cast { send.Broadcast(v) }
//	return done
//
// — same state transitions, same done result, for every round. Engines
// that detect the interface skip the send scratch row entirely: they fuse
// the Broadcast with the scatter into one pass over the node's arc range
// (push, see castBitRow) or, in the throughput loops' dense rounds, store
// the value once for the receivers to gather (pull, see castSlots). Every
// engine takes the fused path whenever the program has one; RoundB stays
// the contract, and the cross-plane suites run it, since bit programs on
// the word and boxed planes go through RoundB. A program implementing
// CastB should make RoundB delegate to it so the two paths cannot drift.
type BitBroadcaster interface {
	BitNode
	CastB(r int, recv BitRow) (v uint64, cast, done bool)
}

// bitCasterProvider lets adapters forward the fused path of the program
// they wrap. Without it, *bitAdapter itself would have to implement CastB —
// and would then falsely advertise fusion for wrapped programs that lack
// it.
type bitCasterProvider interface {
	bitCaster() BitBroadcaster
}

// bitCaster forwards the wrapped program's fused path (nil when it has
// none). bit2Adapter inherits this via embedding.
func (a *bitAdapter) bitCaster() BitBroadcaster {
	c, _ := a.b.(BitBroadcaster)
	return c
}

// bitCasterOf returns n's fused broadcast implementation, unwrapping
// adapters, or nil when n only has the generic path.
func bitCasterOf(n BitNode) BitBroadcaster {
	if p, ok := n.(bitCasterProvider); ok {
		return p.bitCaster()
	}
	c, _ := n.(BitBroadcaster)
	return c
}

// asBitCasters returns the per-node fused implementations, or nil when no
// node of the run fuses (the common probe result for non-broadcast
// programs, costing no allocation). Nodes without the fast path get a nil
// entry and take the RoundB path.
func asBitCasters(nodes []BitNode) []BitBroadcaster {
	var cs []BitBroadcaster
	for i, n := range nodes {
		c := bitCasterOf(n)
		if c == nil {
			continue
		}
		if cs == nil {
			cs = make([]BitBroadcaster, len(nodes))
		}
		cs[i] = c
	}
	return cs
}

// caster returns node v's fused implementation, nil when the run (cs nil)
// or the node takes the generic scatter path.
func caster(cs []BitBroadcaster, v int) BitBroadcaster {
	if cs == nil {
		return nil
	}
	return cs[v]
}

// --- packed plane internals -------------------------------------------------

// bitPlane is one half of a double-buffered packed message plane: one
// 2·width-bit lane per arc in a flat word array the GC never scans — 2 bits
// per arc for 1-bit programs, 32× smaller than the word plane's 64.
type bitPlane struct {
	lanes []uint64
	width uint32
}

// wordsFor returns the uint64 count covering `bits` bits.
func wordsFor(bits int) int { return (bits + 63) / 64 }

// planeWords returns the word count of a plane over `arcs` arcs at the
// given value width.
func planeWords(arcs, width int) int { return wordsFor(arcs * 2 * width) }

// newBitScratch allocates a private, word-aligned send scratch row of deg
// ports (resize per node with ports()).
func newBitScratch(deg, width int) BitRow {
	return BitRow{lanes: make([]uint64, planeWords(deg, width)), n: uint32(deg), width: uint32(width)}
}

// row returns the plane view of arcs [lo, hi) — node v's inbox when called
// with its arc range.
func (pl bitPlane) row(lo, hi int32) BitRow {
	return BitRow{lanes: pl.lanes, lo: uint32(lo), n: uint32(hi - lo), width: pl.width}
}

// clearRow zeroes arcs [lo, hi); see BitRow.clear for atomicEdge.
func (pl bitPlane) clearRow(lo, hi int32, atomicEdge bool) {
	pl.row(lo, hi).clear(atomicEdge)
}

// countRow returns the number of present messages in arcs [lo, hi): the
// population count of the presence bits, which sit at the lane starts.
func (pl bitPlane) countRow(lo, hi int32) int64 {
	lb := 2 * pl.width
	return countPatternRange(pl.lanes, int(uint32(lo)*lb), int(uint32(hi)*lb), laneMultiplier(lb))
}

// clearAll zeroes the whole plane (trial retirement in the batch runner).
func (pl bitPlane) clearAll() { clear(pl.lanes) }

// deadDeliver is a run's view of the delivery table. It starts on the
// topology's shared read-only table and copies on first write, marking
// every arc toward a terminated node with -1: the scatter then drops dead
// deliveries by the sign of the slot it loads anyway, instead of chasing
// adj[arc] plus a dead[] byte per message. Runs in which every node
// terminates in the same round never pay the copy.
type deadDeliver struct {
	t   *Topology
	dlv []int32
}

// table returns the current delivery table.
func (d *deadDeliver) table() []int32 {
	if d.dlv != nil {
		return d.dlv
	}
	return d.t.deliver
}

// kill marks every arc pointing at v dead. Called by coordinators between
// rounds, exactly where the boxed/word paths set dead[v].
func (d *deadDeliver) kill(v int32) {
	if d.dlv == nil {
		d.dlv = append([]int32(nil), d.t.deliver...)
	}
	// The reverse arc of arc i (v → w) is deliver[i] itself: the slot of
	// w's row that points back at v.
	for i := d.t.off[v]; i < d.t.off[v+1]; i++ {
		d.dlv[d.t.deliver[i]] = -1
	}
}

// scatterBitRow delivers the present ports of a node's send scratch row
// into next and clears the scratch: port p maps to arc nodeLo + p, lands in
// lane deliver[arc], and is dropped (not counted) when the slot is marked
// dead (negative — see deadDeliver). One OR writes a lane's presence and
// value together; atomicOr selects the parallel-engine variant, where
// workers of different shards can land in the same plane word concurrently
// (a lane is zero until its unique writer delivers, so OR composes).
// Returns the delivered count.
//
//splitlint:zeroalloc
func scatterBitRow(deliver []int32, next bitPlane, nodeLo int32, row BitRow, atomicOr bool) int64 {
	msgs := int64(0)
	sh := row.width // log2(laneBits), see laneBits
	laneMask := uint64(1)<<(1<<sh) - 1
	presPat := laneMultiplier(uint32(1) << sh)
	nw := wordsFor(int(row.n) << sh)
	for wi := range row.lanes[:nw] {
		lanesW := row.lanes[wi]
		if lanesW == 0 {
			continue
		}
		row.lanes[wi] = 0
		base := uint32(wi) << 6
		bw := lanesW & presPat
		if bw == presPat {
			// Dense word — the broadcast-round common case: walk the lanes
			// linearly, no bit-hunting.
			arc := nodeLo + int32(base>>sh)
			for j := uint32(0); j < 64; j += 1 << sh {
				dst := deliver[arc]
				arc++
				if dst < 0 {
					continue
				}
				lane := lanesW >> j & laneMask
				dj := uint32(dst) << sh
				if atomicOr {
					atomic.OrUint64(&next.lanes[dj>>6], lane<<(dj&63))
				} else {
					next.lanes[dj>>6] |= lane << (dj & 63)
				}
				msgs++
			}
			continue
		}
		for bw != 0 {
			j := uint32(bits.TrailingZeros64(bw))
			bw &= bw - 1
			dst := deliver[nodeLo+int32((base+j)>>sh)]
			if dst < 0 {
				continue
			}
			lane := lanesW >> j & laneMask
			dj := uint32(dst) << sh
			if atomicOr {
				atomic.OrUint64(&next.lanes[dj>>6], lane<<(dj&63))
			} else {
				next.lanes[dj>>6] |= lane << (dj & 63)
			}
			msgs++
		}
	}
	return msgs
}

// castBitRow is the fused Broadcast+scatter: it delivers the single value v
// to every live arc of [arcLo, arcHi) — exactly what staging v on all ports
// of the send row and scattering it would do — without touching the scratch
// row at all. One pass over deliver[], one OR per live arc; dead arcs
// (negative slots) are dropped uncounted, like scatterBitRow. Returns the
// delivered count.
//
//splitlint:zeroalloc
func castBitRow(deliver []int32, next bitPlane, arcLo, arcHi int32, v uint64, atomicOr bool) int64 {
	msgs := int64(0)
	sh := next.width
	lane := 1 | v&(1<<next.width-1)<<1
	for arc := arcLo; arc < arcHi; arc++ {
		dst := deliver[arc]
		if dst < 0 {
			continue
		}
		dj := uint32(dst) << sh
		if atomicOr {
			atomic.OrUint64(&next.lanes[dj>>6], lane<<(dj&63))
		} else {
			next.lanes[dj>>6] |= lane << (dj & 63)
		}
		msgs++
	}
	return msgs
}

// clearBitRange zeroes bits [lo, hi) of ws: plain stores on interior words,
// and — when atomicEdge is set — atomic AND-NOT on the masked head and tail
// words, which may be shared with ranges cleared concurrently by other
// workers.
func clearBitRange(ws []uint64, lo, hi int, atomicEdge bool) {
	if lo >= hi {
		return
	}
	loW, hiW := lo>>6, (hi-1)>>6
	head := ^uint64(0) << (lo & 63)
	tail := ^uint64(0) >> (63 - (hi-1)&63)
	if loW == hiW {
		andNot(&ws[loW], head&tail, atomicEdge)
		return
	}
	andNot(&ws[loW], head, atomicEdge)
	andNot(&ws[hiW], tail, atomicEdge)
	clear(ws[loW+1 : hiW])
}

// andNot clears the masked bits of *w.
func andNot(w *uint64, mask uint64, atomically bool) {
	if atomically {
		atomic.AndUint64(w, ^mask)
	} else {
		*w &^= mask
	}
}

// countPatternRange returns the population count of bits [lo, hi) of ws
// restricted to the (word-aligned, lane-periodic) pattern — with the
// presence pattern, the number of present messages in a lane range.
func countPatternRange(ws []uint64, lo, hi int, pat uint64) int64 {
	if lo >= hi {
		return 0
	}
	loW, hiW := lo>>6, (hi-1)>>6
	head := ^uint64(0) << (lo & 63) & pat
	tail := ^uint64(0) >> (63 - (hi-1)&63) & pat
	if loW == hiW {
		return int64(bits.OnesCount64(ws[loW] & head & tail))
	}
	c := bits.OnesCount64(ws[loW]&head) + bits.OnesCount64(ws[hiW]&tail)
	for w := loW + 1; w < hiW; w++ {
		c += bits.OnesCount64(ws[w] & pat)
	}
	return int64(c)
}

// clearWholesale decides between one wholesale memclr of a packed plane and
// masked per-row clears: wholesale wins while the active set still covers a
// quarter of the graph's weight, per-row wins in long sparse tails. The
// throughput loops also use it to pick pull delivery (see castSlots): a
// dense round is one that clears wholesale.
func clearWholesale(activeWeight int64, n, arcs int) bool {
	return activeWeight*4 >= int64(n+arcs)
}

// --- pull delivery for fused broadcasts -------------------------------------

// Gather block bounds: a pull round's receivers gather the inbox rows of up
// to gatherNodes nodes and gatherArcs arcs (or one larger row) before running
// any of them, so the block's slot loads are all in flight at once instead of
// one row's worth between program calls.
const (
	gatherArcs  = 2048
	gatherNodes = 256
)

// castSlots is the pull side of fused broadcast delivery. A BitBroadcaster
// sends one value on every port, so in a dense round the throughput loops
// let it write that value once — into its own one-byte slot, no scatter and
// no atomic — and the receivers of the next round gather their inbox rows
// from their neighbors' slots (slot[adj[arc]]) instead of finding them
// pushed into the plane. This is the push→pull switch of direction-
// optimizing BFS. Only the bit loop pulls: the word and boxed loops, the
// boxed reference included, always push.
//
// A run (or batch trial) pulls in exactly the rounds that clear the plane
// wholesale, when it has casters and no faults (fault injection acts on the
// plane). Since the active weight only falls, those rounds are a prefix of
// the run. cur holds the casts of the previous round, which this round's
// receivers gather; next takes this round's casts; swap flips them at the
// round boundary. A slot holds the lane — presence bit plus value bits —
// or 0 for silence, non-casters and retired nodes.
type castSlots struct {
	cur, next []uint8
}

// newCastSlots allocates all-clear slots for n nodes: 2 bytes per node.
func newCastSlots(n int) castSlots {
	return castSlots{cur: make([]uint8, n), next: make([]uint8, n)}
}

// swap flips the buffers at a round boundary.
func (s *castSlots) swap() { s.cur, s.next = s.next, s.cur }

// put records node v's cast of this round in its slot: the lane of val at
// the given value width, or 0 when v stays silent.
func (s castSlots) put(v int32, val uint64, cast bool, width uint32) {
	lane := uint8(0)
	if cast {
		lane = uint8(1 | val&(1<<width-1)<<1)
	}
	s.next[v] = lane
}

// uncount returns how many of this round's casts reached v, a node retiring
// this round: the present slots among its neighbors. It is the pull
// counterpart of popcounting v's row of the next plane at compaction.
func (s castSlots) uncount(t *Topology, v int32) int64 {
	c := int64(0)
	for _, u := range t.adj[t.off[v]:t.off[v+1]] {
		c += int64(s.next[u] & 1)
	}
	return c
}

// retire clears v's slot in cur. A node retiring at round r is retired at
// r's compaction (cur then holds its cast of round r-1, which it will not
// overwrite) and again at r+1's (cur then holds its final cast, which the
// receivers of r+1 have read). Only pull rounds need either clear: after
// the last pull round no receiver gathers again.
func (s castSlots) retire(v int32) { s.cur[v] = 0 }

// gatherBlock gathers the inbox rows of active[i:j] into buf, word-aligned
// and back to back, and returns j: as many nodes from i as fit the block
// bounds (at least one, at most end). Row lanes come from the neighbors'
// slots in cur; with orPlane, pushes that landed in the inbox plane — from
// non-casters, which always push — are OR-ed in. The slot loads form one
// tight loop with no dependent work between them, which is what lets the
// memory system overlap their misses.
func (s castSlots) gatherBlock(t *Topology, active []int32, i, end int, inbox bitPlane, orPlane bool, buf []uint64) int {
	sh := inbox.width
	lpw := int32(64) >> sh // lanes per word
	cur, adj := s.cur, t.adj
	o := 0
	arcs := int32(0)
	j := i
	for ; j < end && j-i < gatherNodes; j++ {
		v := active[j]
		lo, hi := t.off[v], t.off[v+1]
		if arcs += hi - lo; arcs > gatherArcs && j > i {
			break
		}
		for a := lo; a < hi; a += lpw {
			e := min(a+lpw, hi)
			var w uint64
			for k, u := range adj[a:e] {
				w |= uint64(cur[u]) << (uint(k) << sh)
			}
			if orPlane {
				w |= bitsAt(inbox.lanes, uint64(a)<<sh, uint(e-a)<<sh)
			}
			buf[o] = w
			o++
		}
	}
	return j
}

// gatherWords sizes a worker's gather scratch for a topology of maximum
// degree maxDeg: the block's lanes plus one word of row padding per node.
func gatherWords(maxDeg, width int) int {
	return planeWords(max(gatherArcs, maxDeg), width) + gatherNodes
}

// bitsAt returns the n (1..64) bits of ws starting at bit b, through atomic
// loads (a neighbor row's owner may be clearing a shared word).
func bitsAt(ws []uint64, b uint64, n uint) uint64 {
	i, s := b>>6, uint(b&63)
	x := atomic.LoadUint64(&ws[i]) >> s
	if s+n > 64 {
		x |= atomic.LoadUint64(&ws[i+1]) << (64 - s)
	}
	if n < 64 {
		x &= 1<<n - 1
	}
	return x
}

// bitPass is a bit trial's run state in the throughput loop, as its units
// and its coordinator see it. BatchRun's bit units run their nodes through
// bitPass.run, and its coordinator drives the round through begin,
// clearConsumed, retire and end, so push, pull, gather and the pull-side
// accounting live in one place. The coordinator sets the per-round fields
// between rounds; the wakeup publishes them.
type bitPass struct {
	t       *Topology
	nodes   []BitNode
	casters []BitBroadcaster // nil when the run has no fused casters
	done    []bool
	par     bool // other workers share plane words: atomic scatter and edge clears
	// pulls: the run has casters and no faults, so its dense rounds pull;
	// mixed: some nodes lack CastB and push even in pull rounds.
	pulls, mixed bool
	slots        castSlots // allocated when pulls
	retired      []int32   // the last pull round's retirees (see castSlots.retire)

	// Per round, set by begin.
	r           int
	inbox, next bitPlane
	deliver     []int32
	wholesale   bool // the coordinator memclrs the consumed plane (clearWholesale)
	pull        bool // casters write slots instead of scattering
	gather      bool // last round pulled: receivers gather from slots.cur
	rowClear    bool // consumers clear their own inbox rows
	allLive     bool // no node has died, so a cast reaches every arc
}

// newBitPass sets up a run's pass; faulty runs never pull.
func newBitPass(t *Topology, nodes []BitNode, done []bool, faulty, par bool) bitPass {
	p := bitPass{t: t, nodes: nodes, casters: asBitCasters(nodes), done: done, par: par}
	if p.casters != nil && !faulty {
		p.pulls = true
		p.slots = newCastSlots(t.N())
		for _, c := range p.casters {
			p.mixed = p.mixed || c == nil
		}
	}
	return p
}

// begin sets the pass up for round r over the given planes. weight is the
// active set's weight: dense rounds clear wholesale and, when the run
// pulls, pull; the round after the last pull round still gathers.
func (p *bitPass) begin(r int, inbox, next bitPlane, dead *deadDeliver, weight int64) {
	p.r = r
	p.inbox, p.next = inbox, next
	p.deliver = dead.table()
	p.allLive = dead.dlv == nil
	p.wholesale = clearWholesale(weight, p.t.N(), len(p.t.adj))
	p.gather = p.pull
	p.pull = p.pulls && p.wholesale
	p.rowClear = !p.wholesale && p.planeIn()
}

// planeIn reports whether pushes may have landed in this round's inbox
// plane: always, unless the last round pulled and every node casts.
func (p *bitPass) planeIn() bool { return !p.gather || p.mixed }

// clearConsumed memclrs the consumed inbox plane after a wholesale round's
// barrier, when it can hold anything.
func (p *bitPass) clearConsumed() {
	if p.wholesale && p.planeIn() {
		p.inbox.clearAll()
	}
}

// startCompaction gives the last pull round's retirees their second slot
// clear; the coordinator calls it before retiring this round's nodes.
func (p *bitPass) startCompaction() {
	if !p.pull {
		return
	}
	for _, v := range p.retired {
		p.slots.retire(v)
	}
	p.retired = p.retired[:0]
}

// retire drops the messages this round delivered to v, a node finishing
// this round, and returns their count for the coordinator to uncount: its
// row of the next plane when pushes may have landed there, and in a pull
// round the casts its neighbors' slots hold for it. The caller kills v's
// arcs.
func (p *bitPass) retire(v int32) int64 {
	lo, hi := p.t.off[v], p.t.off[v+1]
	drop := int64(0)
	if !p.pull || p.mixed {
		drop = p.next.countRow(lo, hi)
		p.next.clearRow(lo, hi, false)
	}
	if p.pull {
		drop += p.slots.uncount(p.t, v)
		p.slots.retire(v)
		p.retired = append(p.retired, v)
	}
	return drop
}

// end closes the round: the slot buffers swap with the planes.
func (p *bitPass) end() { p.slots.swap() }

// liveArcs counts the arcs of [lo, hi) whose receiver is alive — what
// castBitRow delivers and counts for a cast on them: all of them while no
// node has died, else the non-negative delivery slots.
func (p *bitPass) liveArcs(lo, hi int32) int64 {
	if p.allLive {
		return int64(hi - lo)
	}
	n := int64(0)
	for _, d := range p.deliver[lo:hi] {
		if d >= 0 {
			n++
		}
	}
	return n
}

// bitCursor is a shard's progress: the node in flight (for panic
// attribution), the messages delivered so far and the nodes that finished.
type bitCursor struct {
	v       int
	msgs    int64
	retired int
}

// run executes round p.r for the nodes active[i:end], accumulating into c.
//
//splitlint:zeroalloc
func (p *bitPass) run(active []int32, i, end int, send BitRow, gbuf []uint64, c *bitCursor) {
	t := p.t
	sh := p.inbox.width
	for i < end {
		j := end
		if p.gather {
			j = p.slots.gatherBlock(t, active, i, end, p.inbox, p.mixed, gbuf)
		}
		o := 0
		for ; i < j; i++ {
			v := active[i]
			c.v = int(v)
			lo, hi := t.off[v], t.off[v+1]
			var recv BitRow
			if p.gather {
				recv = BitRow{lanes: gbuf, lo: uint32(o) << 6 >> sh, n: uint32(hi - lo), width: sh}
				o += wordsFor(int(hi-lo) << sh)
			} else {
				recv = p.inbox.row(lo, hi)
			}
			cs := caster(p.casters, int(v))
			var fin bool
			if cs != nil {
				val, cast, cfin := cs.CastB(p.r, recv)
				switch {
				case p.pull:
					p.slots.put(v, val, cast, sh)
					if cast {
						c.msgs += p.liveArcs(lo, hi)
					}
				case cast:
					c.msgs += castBitRow(p.deliver, p.next, lo, hi, val, p.par)
				}
				fin = cfin
			} else {
				row := send.ports(int(hi - lo))
				fin = p.nodes[v].RoundB(p.r, recv, row)
				c.msgs += scatterBitRow(p.deliver, p.next, lo, row, p.par)
			}
			if fin {
				p.done[v] = true
				c.retired++
			}
			if p.rowClear {
				p.inbox.clearRow(lo, hi, p.par)
			}
		}
	}
	c.v = -1
}
