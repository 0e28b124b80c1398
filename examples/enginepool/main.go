// Engine pool: the same deterministic weak-splitting run under both LOCAL
// engines. The outputs are bit-for-bit identical — per-node randomness is
// keyed by (seed, ID), never by scheduling — so the engines differ only in
// wall-clock time: the sequential engine iterates nodes in one goroutine,
// and the worker-pool engine shards the active nodes over GOMAXPROCS
// workers with reused double-buffered message arrays.
package main

import (
	"fmt"
	"os"
	"time"

	splitting "repro"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "enginepool: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	// A mid-size instance: 256 constraints over 2048 variables, δ = 24 ≥
	// 2·log₂n ≈ 22.3 — the regime of Theorem 1.1.
	src := splitting.NewSource(7)
	b, err := splitting.RandomInstance(256, 2048, 24, src)
	if err != nil {
		return err
	}
	fmt.Printf("instance: |U|=%d |V|=%d δ=%d r=%d\n", b.NU(), b.NV(), b.MinDegU(), b.Rank())

	engines := []struct {
		name string
		e    splitting.Engine
	}{
		{"sequential", splitting.Sequential()},
		{"worker-pool", splitting.WorkerPool(0)},
	}
	var ref *splitting.Result
	for _, eng := range engines {
		start := time.Now()
		res, err := splitting.DeterministicOn(b, eng.e)
		if err != nil {
			return fmt.Errorf("%s: %w", eng.name, err)
		}
		if err := splitting.Verify(b, res.Colors, 0); err != nil {
			return fmt.Errorf("%s: invalid output: %w", eng.name, err)
		}
		fmt.Printf("%-20s %6d rounds  %10s wall\n",
			eng.name, res.Trace.Rounds(), time.Since(start).Round(time.Millisecond))
		if ref == nil {
			ref = res
			continue
		}
		for v := range res.Colors {
			if res.Colors[v] != ref.Colors[v] {
				return fmt.Errorf("%s: engines disagree at variable %d — determinism broken", eng.name, v)
			}
		}
	}
	fmt.Println("all engines produced bit-identical splittings")
	return nil
}
