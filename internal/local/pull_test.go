package local

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/prob"
)

// pullProbe is the pull-delivery stress program. Every node folds each
// received lane (port, presence, value) and the row aggregates into a
// running hash, publishes it to out every round, and stops at its own
// round. Casters broadcast a hash bit (or trit) through CastB and stay
// silent on some rounds; pushers — nodes without CastB — send per-port
// patterns with silent ports, so they keep pushing into the plane while
// their caster neighbors pull. gathered records that some receiver read a
// row gathered from cast slots (a row backed by the gather scratch, not by
// the plane).
type pullProbe struct {
	idx, stop int
	width     uint
	acc       uint64
	out       []uint64
	gathered  *atomic.Bool
	plane     int // word count of the run's plane, to tell gathered rows apart
	cancelAt  int // round in which node 0 fires cancel (0: never)
	cancel    context.CancelFunc
}

func (n *pullProbe) fold(r int, recv BitRow) {
	if len(recv.lanes) != n.plane {
		n.gathered.Store(true)
	}
	h := n.acc ^ uint64(r)
	for p := 0; p < recv.Len(); p++ {
		v, ok := recv.Lane(p)
		if ok {
			h = (h ^ uint64(p)<<8 ^ v<<1 ^ 1) * 1099511628211
		}
	}
	h = (h ^ uint64(recv.CountPresent())<<20 ^ uint64(recv.CountValue(1))<<40) * 1099511628211
	n.acc = h
	n.out[n.idx] = h
	if r == n.cancelAt && n.idx == 0 {
		n.cancel()
	}
}

func (n *pullProbe) mask() uint64 { return 1<<n.width - 1 }

type probeCaster struct{ *pullProbe }

func (n probeCaster) CastB(r int, recv BitRow) (uint64, bool, bool) {
	n.fold(r, recv)
	cast := (n.acc>>3+uint64(r))%4 != 0
	return n.acc >> 11 & n.mask(), cast, r >= n.stop
}

func (n probeCaster) RoundB(r int, recv, send BitRow) bool {
	v, cast, done := n.CastB(r, recv)
	if cast {
		send.Broadcast(v)
	}
	return done
}

type probePusher struct{ *pullProbe }

func (n probePusher) RoundB(r int, recv, send BitRow) bool {
	n.fold(r, recv)
	for p := 0; p < send.Len(); p++ {
		if n.acc>>(uint(p)%61)&1 != 0 {
			send.Set(p, n.acc>>(uint(p+5)%59)&n.mask())
		}
	}
	return r >= n.stop
}

type probeCaster2 struct{ probeCaster }

func (probeCaster2) Bit2() {}

type probePusher2 struct{ probePusher }

func (probePusher2) Bit2() {}

// pullCase is one program shape of the pull table.
type pullCase struct {
	name    string
	pusher  func(idx int) bool // which nodes lack CastB
	width   uint
	uniform int               // > 0: every node stops at this round (the all-retire path)
	stop    func(idx int) int // nil: pullStop
}

// pullStop staggers the stops: most nodes retire in rounds 2–5, while the
// graph is still dense enough to pull, and the rest run into a long sparse
// tail of push rounds.
func pullStop(idx int) int {
	switch {
	case idx%10 < 8:
		return 2 + idx%4
	case idx%37 == 0:
		return 40
	}
	return 8 + idx%13
}

// pullFactory builds one pullCase; plane is the run's plane word count.
func (pc pullCase) factory(out []uint64, gathered *atomic.Bool, plane, cancelAt int, cancel context.CancelFunc) Factory {
	idx := 0
	return func(View) Node {
		stop := pullStop(idx)
		if pc.stop != nil {
			stop = pc.stop(idx)
		}
		if pc.uniform > 0 {
			stop = pc.uniform
		}
		p := &pullProbe{idx: idx, stop: stop, width: 1, out: out, gathered: gathered, plane: plane, cancelAt: cancelAt, cancel: cancel}
		push := pc.pusher != nil && pc.pusher(idx)
		idx++
		if pc.width == 2 {
			p.width = 2
			if push {
				return BitProgram(probePusher2{probePusher{p}})
			}
			return BitProgram(probeCaster2{probeCaster{p}})
		}
		if push {
			return BitProgram(probePusher{p})
		}
		return BitProgram(probeCaster{p})
	}
}

// TestPullDeliveryMatchesOracle pins the pull path of the throughput bit
// loop against the boxed oracle: on pools of 1, 2 and 3 workers and in a
// 2-trial batch whose second trial injects faults (so one trial pulls while
// the other pushes in the same rounds), every program shape — casters only,
// casters mixed with pushers, width-2 lanes, silent casts, retirements
// during dense rounds, a dense→sparse tail and a whole active set stopping
// at once — must produce exactly the oracle's outputs and Stats, on a clean
// finish and when MaxRounds or a cancellation ends the run right after a
// pull round. The oracle runs the bit programs through their boxed shims,
// which never see a packed plane row, so it cannot pull or gather.
func TestPullDeliveryMatchesOracle(t *testing.T) {
	t.Parallel()
	g := graph.RandomGraph(400, 0.02, prob.NewSource(41).Rand())
	topo := NewTopology(g)
	n := topo.N()
	cases := []pullCase{
		{name: "casters"},
		{name: "mixed", pusher: func(i int) bool { return i%3 == 0 }},
		{name: "mixed-w2", pusher: func(i int) bool { return i%4 == 1 }, width: 2},
		{name: "casters-w2-allstop", width: 2, uniform: 4},
		{name: "mixed-allstop", pusher: func(i int) bool { return i%5 == 2 }, uniform: 4},
	}
	// Exits: a clean finish; MaxRounds 3 and a cancel fired during round 2
	// both stop the run right after a pull round (the first rounds are
	// dense).
	exits := []struct {
		name      string
		maxRounds int
		cancelAt  int
	}{{"finish", 0, 0}, {"maxrounds", 3, 0}, {"cancel", 0, 2}}
	faults := &FaultPlan{Seed: 5, Drop: 0.1}
	for _, pc := range cases {
		width := int(max(pc.width, 1))
		plane := planeWords(len(topo.adj), width)
		for _, ex := range exits {
			name := pc.name + "/" + ex.name
			// opts builds a run's options and its oracle's: a fresh cancel
			// context per run, so each run observes its own cancellation.
			opts := func(seed uint64, fp *FaultPlan) (Options, context.CancelFunc) {
				o := Options{Source: prob.NewSource(seed), MaxRounds: ex.maxRounds, Faults: fp}
				ctx, cancel := context.WithCancel(context.Background())
				if ex.cancelAt > 0 {
					o.Control = &RunControl{Ctx: ctx}
				}
				return o, cancel
			}
			oracle := func(seed uint64, fp *FaultPlan) ([]uint64, Stats, error) {
				out := make([]uint64, n)
				var gathered atomic.Bool
				o, cancel := opts(seed, fp)
				defer cancel()
				st, err := Oracle.Run(topo, pc.factory(out, &gathered, plane, ex.cancelAt, cancel), o)
				return out, st, err
			}
			check := func(eng string, out, want []uint64, st, wantSt Stats, err, wantErr error) {
				t.Helper()
				if fmt.Sprint(err) != fmt.Sprint(wantErr) || errors.Is(err, ErrCancelled) != errors.Is(wantErr, ErrCancelled) {
					t.Errorf("%s/%s: err %v, oracle %v", name, eng, err, wantErr)
				}
				if st != wantSt {
					t.Errorf("%s/%s: stats %+v, oracle %+v", name, eng, st, wantSt)
				}
				for v := range out {
					if out[v] != want[v] {
						t.Errorf("%s/%s: node %d output %#x, oracle %#x", name, eng, v, out[v], want[v])
						break
					}
				}
			}
			want, wantSt, wantErr := oracle(7, nil)
			if ex.name != "finish" && wantErr == nil {
				t.Fatalf("%s: the oracle finished, the exit is not exercised", name)
			}
			for _, nw := range []int{1, 2, 3} {
				out := make([]uint64, n)
				var gathered atomic.Bool
				o, cancel := opts(7, nil)
				st, err := WorkerPoolEngine{Workers: nw}.Run(topo, pc.factory(out, &gathered, plane, ex.cancelAt, cancel), o)
				cancel()
				eng := fmt.Sprintf("pool-%d", nw)
				check(eng, out, want, st, wantSt, err, wantErr)
				if !gathered.Load() {
					t.Errorf("%s/%s: no receiver gathered a pulled row", name, eng)
				}
			}
			// The batch: trial 0 pulls, trial 1 pushes under faults.
			wantF, wantFSt, wantFErr := oracle(8, faults)
			outs := [2][]uint64{make([]uint64, n), make([]uint64, n)}
			var gathered [2]atomic.Bool
			o0, cancel0 := opts(7, nil)
			o1, cancel1 := opts(8, faults)
			stats, errs := BatchRun(topo, []Trial{
				{Factory: pc.factory(outs[0], &gathered[0], plane, ex.cancelAt, cancel0), Opts: o0},
				{Factory: pc.factory(outs[1], &gathered[1], plane, ex.cancelAt, cancel1), Opts: o1},
			}, BatchOptions{Workers: 3})
			cancel0()
			cancel1()
			check("batch/clean", outs[0], want, stats[0], wantSt, errs[0], wantErr)
			check("batch/faulty", outs[1], wantF, stats[1], wantFSt, errs[1], wantFErr)
			if gathered[1].Load() {
				t.Errorf("%s: the faulty batch trial gathered a pulled row", name)
			}
			if !gathered[0].Load() {
				t.Errorf("%s: the clean batch trial never gathered a pulled row", name)
			}
		}
	}
}
