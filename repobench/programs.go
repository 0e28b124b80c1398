package main

import (
	"encoding/binary"
	"hash/fnv"

	"repro/internal/local"
)

// exchangeNode is the bit-plane exchange program: every node folds the count
// of 1-bits it hears into a running tally and broadcasts one bit of it each
// round until round stop, when it writes the tally to out and stops. Every
// broadcast is a full-row cast, so the pool engine takes its fused scatter
// path; no round allocates.
type exchangeNode struct {
	stop int
	acc  uint64
	out  *uint64
}

// CastB implements local.BitBroadcaster.
func (n *exchangeNode) CastB(r int, recv local.BitRow) (uint64, bool, bool) {
	n.acc = n.acc*31 + uint64(recv.CountValue(1))
	if r >= n.stop {
		*n.out = n.acc
		return 0, false, true
	}
	return (n.acc + uint64(r)) & 1, true, false
}

// RoundB implements local.BitNode; it must stay observationally identical
// to CastB (engines without the fused path call it).
func (n *exchangeNode) RoundB(r int, recv, send local.BitRow) bool {
	v, cast, done := n.CastB(r, recv)
	if cast {
		send.Broadcast(v)
	}
	return done
}

// exchangeFactory builds the dense program with a fixed round budget. Each
// node starts from its private random stream, so trials with different
// sources produce different outputs; out[v] receives node v's final tally
// (runs use identity IDs, so a node's ID is its index).
func exchangeFactory(rounds int, out []uint64) local.Factory {
	return func(v local.View) local.Node {
		return local.BitProgram(&exchangeNode{stop: rounds, acc: v.Rand.Uint64(), out: &out[v.ID]})
	}
}

// tailFactory builds the shattering-tail program: every node stops after 2
// or 3 rounds except about one in tailOdds, which keeps exchanging until
// round tail — the residue the paper's shattering step leaves behind.
func tailFactory(tail, tailOdds int, out []uint64) local.Factory {
	return func(v local.View) local.Node {
		stop := 2 + int(v.Rand.Uint64()%2)
		if v.Rand.Uint64()%uint64(tailOdds) == 0 {
			stop = tail
		}
		return local.BitProgram(&exchangeNode{stop: stop, acc: v.Rand.Uint64(), out: &out[v.ID]})
	}
}

// digest is the FNV-1a hash of a run's per-node outputs (tallies or
// colors) in node order.
func digest[T int | uint64](out []T) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range out {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:]) // a hash.Hash never returns an error
	}
	return h.Sum64()
}
