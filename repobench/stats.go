package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// geomean is the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// gcSnapshot is a reading of the runtime's GC counters.
type gcSnapshot struct {
	gcCPU, totalCPU float64
	cycles          float64
}

// gcDelta is the GC share of CPU time and the cycle count between two
// snapshots.
type gcDelta struct {
	cpuFrac float64
	cycles  float64
}

func readGC() gcSnapshot {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(samples)
	var s gcSnapshot
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		s.totalCPU = samples[1].Value.Float64()
	}
	if samples[2].Value.Kind() == metrics.KindUint64 {
		s.cycles = float64(samples[2].Value.Uint64())
	}
	return s
}

func (s gcSnapshot) since(s0 gcSnapshot) gcDelta {
	d := gcDelta{cycles: s.cycles - s0.cycles}
	if tot := s.totalCPU - s0.totalCPU; tot > 0 {
		d.cpuFrac = (s.gcCPU - s0.gcCPU) / tot
	}
	return d
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// refLoop is about 50 ms of fixed CPU work that has nothing to do with the
// repository's code: a dependent multiply-add chain and a dependent walk
// over 8 MiB. It runs as one copy per CPU at once, as the workloads' workers
// do, between a workload's units of work while nothing else runs. Its CPU
// time per copy tracks how fast the host runs this process at the moment,
// with every CPU busy; on a shared VM that drifts by ±15% over minutes, for
// the workloads and the loop alike.
type refLoop struct {
	mem []uint64
	cpu []float64 // CPU ms per copy, per execution
}

func newRefLoop() *refLoop {
	l := &refLoop{mem: make([]uint64, 1<<20)}
	for i := range l.mem {
		l.mem[i] = uint64(i) * 2654435761
	}
	return l
}

// sample runs the loop once on every CPU at the same time and records the
// CPU time per copy.
func (l *refLoop) sample() {
	sinks := make([]uint64, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	c0 := cpuTime()
	for g := range sinks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sinks[g] = l.run(uint64(g))
		}()
	}
	wg.Wait()
	l.cpu = append(l.cpu, ms(cpuTime()-c0)/float64(len(sinks)))
	for _, s := range sinks {
		runtime.KeepAlive(s) // keeps the loops from being optimized away
	}
}

// run is one copy of the loop.
func (l *refLoop) run(start uint64) uint64 {
	x := 1 + start
	for i := 0; i < 10_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	idx := 7 + start
	for i := 0; i < 200_000; i++ {
		idx = l.mem[idx%uint64(len(l.mem))] ^ uint64(i)
	}
	return x + idx
}

// samples runs the loop n times.
func (l *refLoop) samples(n int) {
	for i := 0; i < n; i++ {
		l.sample()
	}
}

// report sets the gated relative costs: the workload's CPU ms and its
// wall-clock ms per unit of work, each divided by the loop's median CPU ms
// per copy. The divisor only measures the host's speed; the wall figure
// moves when the workload loses parallelism or waits longer even where its
// CPU time stays the same.
func (l *refLoop) report(res *result, cpuMsPerOp, wallMsPerOp float64) {
	ref := median(l.cpu)
	res.set("cpu_ms_per_op", "ms", cpuMsPerOp)
	res.set("wall_ms_per_op", "ms", wallMsPerOp)
	res.set("ref_loop_ms", "ms", ref)
	res.set("cpu_per_op_rel", "ratio", cpuMsPerOp/ref)
	res.set("wall_per_op_rel", "ratio", wallMsPerOp/ref)
}

// mallocs returns the cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}
