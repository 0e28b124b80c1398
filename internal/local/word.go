package local

// This file defines the compact word-encoded message plane — the
// zero-allocation fast path of every engine. The paper's algorithms exchange
// only small scalars (colors, trits, bits, priorities), yet the boxed
// Message = any representation heap-allocates every send and fills the
// double-buffered planes with pointers the GC must rescan on every cycle. A
// Word packs the same information into one uint64, so the planes become
// pointer-free flat arrays the GC skips entirely and a steady-state round
// performs no heap allocation at all:
//
//   - programs implement WordNode and write sends into an engine-provided
//     buffer instead of allocating a []Message per round;
//   - engines detect WordNode programs (all nodes of a run must implement
//     it) and switch the planes from []Message to []Word;
//   - the boxed Node path is untouched and remains the fallback for
//     programs with large or structured messages, and WordProgram adapts a
//     WordNode to it so the Engine/Factory interfaces are unchanged.
//
// Encoding convention: a Word is tag bits (top WordTagBits) plus a payload
// (low WordPayloadBits). The all-zero word is the reserved nil/silent
// sentinel, so real messages must be non-zero — MakeWord enforces this by
// requiring a tag in 1..7, which leaves the full payload range (including 0)
// representable. Programs that need several message kinds on one plane (e.g.
// Luby's priority/joined/dropped) dispatch on Tag(); single-kind programs
// just use tag 1.

// Word is a compact message: WordTagBits of tag, WordPayloadBits of payload.
// The zero value is NilWord, the silent sentinel — it is never delivered.
type Word uint64

// NilWord is the reserved "no message" sentinel: a slot holding NilWord in a
// send buffer sends nothing, and in a recv buffer means the port was silent.
const NilWord Word = 0

// Word layout constants.
const (
	// WordTagBits is the width of the tag field (top bits).
	WordTagBits = 3
	// WordPayloadBits is the width of the payload field (low bits).
	WordPayloadBits = 64 - WordTagBits
	// WordPayloadMask masks a value to the payload field's width; programs
	// that transmit raw random draws (e.g. Luby priorities) mask their local
	// copy with it so that sender and receiver compare identical values.
	WordPayloadMask = 1<<WordPayloadBits - 1
)

// MakeWord packs a tag (1..7; tag 0 is reserved so that NilWord stays
// unambiguous) and a payload truncated to WordPayloadBits. Tags outside 1..7
// are reduced to their low WordTagBits; callers own keeping tags in range.
func MakeWord(tag uint8, payload uint64) Word {
	return Word(payload&WordPayloadMask) | Word(tag&(1<<WordTagBits-1))<<WordPayloadBits
}

// Tag returns the tag field.
func (w Word) Tag() uint8 { return uint8(w >> WordPayloadBits) }

// Payload returns the payload field.
func (w Word) Payload() uint64 { return uint64(w) & WordPayloadMask }

// MakeIntWord packs a signed payload (zigzag-encoded, so small negative
// values like the Uncolored = -1 trit cost only low bits) under the given
// tag. The value must fit in WordPayloadBits-1 magnitude bits.
func MakeIntWord(tag uint8, x int) Word {
	return MakeWord(tag, uint64(x)<<1^uint64(x>>63))
}

// Int returns the payload decoded as the signed value MakeIntWord packed.
func (w Word) Int() int {
	p := w.Payload()
	return int(p>>1) ^ -int(p&1)
}

// WordNode is the zero-allocation fast path of the engines: a per-node
// program whose messages are Words. RoundW is called once per synchronous
// round with recv a read-only view of the node's inbox row (NilWord for
// silent ports) and send an all-NilWord buffer of the same length; the
// program writes the words it wants delivered per port (leaving a slot
// NilWord sends nothing) and returns whether it has terminated. Both slices
// are engine-owned and valid only for the duration of the call — a program
// must not retain them across rounds.
//
// Engines use this path only when every node of a run implements WordNode;
// a mixed program falls back to the boxed path, where WordNode programs
// wrapped by WordProgram exchange their Words as boxed messages with
// unchanged meaning. Termination, delivery and Stats semantics are exactly
// those of Node.Round: a delivered message is a non-NilWord slot addressed
// to a node that has not already terminated.
type WordNode interface {
	RoundW(r int, recv []Word, send []Word) (done bool)
}

// WordSleeper is a WordNode that can sleep through rounds in which it has
// nothing to do. After a RoundW(r, …) that returned false, WakeW(r) reports
// the next round in which the node must run even if no message arrives;
// returning r+1 (or less) never sleeps. A node with mail always runs.
//
// The contract: skipping the node in a round whose inbox is silent must be
// the same as calling RoundW with an all-NilWord recv, in which the node
// sends nothing and does not finish. The word loop skips sleeping nodes
// only when every node of a trial is a WordSleeper and the trial injects
// no faults; the boxed loop and faulty trials call every node every round,
// so a sleeper must give the same result either way.
type WordSleeper interface {
	WordNode
	WakeW(r int) int
}

// allSleep reports whether every word node is a WordSleeper. The batch
// runs it once per trial: sleeping is all-or-nothing, like the plane.
func allSleep(ws []WordNode) bool {
	for _, w := range ws {
		if _, ok := w.(WordSleeper); !ok {
			return false
		}
	}
	return true
}

// WordFunc adapts a closure to WordNode, for programs without per-node
// state. Wrap it with WordProgram to obtain a Node for a Factory.
type WordFunc func(r int, recv []Word, send []Word) bool

// RoundW implements WordNode.
func (f WordFunc) RoundW(r int, recv []Word, send []Word) bool { return f(r, recv, send) }

// Broadcast fills every slot of send with w — the shared broadcast helper
// of the word path. It writes into the caller-provided buffer and allocates
// nothing; programs that broadcast selectively (e.g. only to still-alive
// neighbors) fill the slots themselves.
//
//splitlint:zeroalloc
func Broadcast(send []Word, w Word) {
	for p := range send {
		send[p] = w
	}
}

// WordProgram adapts a WordNode to the boxed Node interface, so factories
// can return word programs without engines or callers changing type: the
// engines detect the WordNode (the adapter forwards RoundW verbatim, so the
// fast path pays nothing for the wrapper), and any boxed-path consumer sees
// an ordinary Node whose messages are Words boxed as `any`.
func WordProgram(w WordNode) Node { return &wordAdapter{w: w} }

// wordAdapter implements both Node and WordNode over an underlying
// WordNode. The boxed Round reuses per-node scratch buffers across rounds,
// so even the fallback path allocates only the messages it must box; the
// buffers sit behind a pointer allocated on the first Round, so word-plane
// runs carry only w.
type wordAdapter struct {
	w   WordNode
	box *wordBox
}

// wordBox is a wordAdapter's boxed-path scratch: decoded recv words and
// staged send words, one slot per port.
type wordBox struct {
	recv, send []Word
}

var (
	_ Node     = (*wordAdapter)(nil)
	_ WordNode = (*wordAdapter)(nil)
)

// RoundW implements WordNode by delegation; engines on the word path call
// this directly and never touch the boxed shim below.
func (a *wordAdapter) RoundW(r int, recv []Word, send []Word) bool {
	return a.w.RoundW(r, recv, send)
}

// Round implements Node: it decodes boxed Words into the scratch recv
// buffer, runs the word program, and boxes the non-nil sends.
func (a *wordAdapter) Round(r int, recv []Message) ([]Message, bool) {
	deg := len(recv)
	if a.box == nil {
		buf := make([]Word, 2*deg)
		a.box = &wordBox{recv: buf[:deg:deg], send: buf[deg:]}
	}
	box := a.box
	for p, m := range recv {
		if m != nil {
			box.recv[p] = m.(Word)
		} else {
			box.recv[p] = NilWord
		}
	}
	done := a.w.RoundW(r, box.recv, box.send)
	var out []Message
	for p, w := range box.send {
		if w != NilWord {
			if out == nil {
				out = make([]Message, deg)
			}
			out[p] = w
			box.send[p] = NilWord
		}
	}
	return out, done
}

// asWordNodes returns the nodes viewed as WordNodes when every one of them
// implements the fast path, and nil otherwise (the engines then use the
// boxed path for the whole run — word and boxed programs never share a
// plane). The check runs before the slice is allocated, so a boxed-path
// run costs no allocation here. A WordProgram adapter is unwrapped: the
// round loop calls the program itself, one indirect call and one heap
// object fewer per node-round.
func asWordNodes(nodes []Node) []WordNode {
	for _, n := range nodes {
		if _, ok := n.(WordNode); !ok {
			return nil
		}
	}
	ws := make([]WordNode, len(nodes))
	for i, n := range nodes {
		if a, ok := n.(*wordAdapter); ok {
			ws[i] = a.w
			continue
		}
		ws[i] = n.(WordNode)
	}
	return ws
}
