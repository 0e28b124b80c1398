package cliutil

import (
	"flag"
	"io"
	"testing"

	"repro/internal/local"
)

// TestEngineFlagsResolve pins the shared engine flag block: the engine and
// overlay it yields, and the cross-flag rejections it runs for every CLI.
func TestEngineFlagsResolve(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		workers int
		batch   bool
		engine  local.Engine
		overlay local.Overlay
		wantErr bool
	}{
		{name: "defaults", engine: local.SequentialEngine{}},
		{name: "pool-sized-by-workers", args: []string{"-engine", "pool"}, workers: 3, engine: local.WorkerPoolEngine{Workers: 3}},
		{name: "batch-engine-is-pool", args: []string{"-engine", "batch"}, engine: local.WorkerPoolEngine{}},
		{name: "plane", args: []string{"-plane", "bit"}, engine: local.SequentialEngine{}, overlay: local.Overlay{Plane: local.PlaneBit}},
		{name: "faults", args: []string{"-drop", "0.1", "-delay", "2", "-faultseed", "9"}, engine: local.SequentialEngine{},
			overlay: local.Overlay{Faults: local.FaultPlan{Seed: 9, Drop: 0.1, Delay: 2}}},
		{name: "crash-only", args: []string{"-crash", "0.01"}, engine: local.SequentialEngine{},
			overlay: local.Overlay{Faults: local.FaultPlan{Seed: 1, Crash: 0.01}}},
		{name: "batch-alone", batch: true, engine: local.SequentialEngine{}},
		{name: "unknown-engine", args: []string{"-engine", "gpu"}, wantErr: true},
		{name: "removed-engine", args: []string{"-engine", "goroutine"}, wantErr: true},
		{name: "unknown-plane", args: []string{"-plane", "simd"}, wantErr: true},
		{name: "drop-out-of-range", args: []string{"-drop", "1.5"}, wantErr: true},
		{name: "crash-out-of-range", args: []string{"-crash", "-0.1"}, wantErr: true},
		{name: "negative-delay", args: []string{"-drop", "0.1", "-delay", "-1"}, wantErr: true},
		{name: "delay-without-plan", args: []string{"-delay", "2"}, wantErr: true},
		{name: "faultseed-without-plan", args: []string{"-faultseed", "9"}, wantErr: true},
		{name: "plane+batch", args: []string{"-plane", "word"}, batch: true, wantErr: true},
		{name: "faults+batch", args: []string{"-drop", "0.1"}, batch: true, wantErr: true},
	}
	for _, tc := range cases {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		f := NewEngineFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%s: parse: %v", tc.name, err)
		}
		eng, ov, err := f.Resolve(tc.workers, tc.batch)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: got err %v, wantErr=%t", tc.name, err, tc.wantErr)
			continue
		}
		if err == nil && (eng != tc.engine || ov != tc.overlay) {
			t.Errorf("%s: got %#v + %+v, want %#v + %+v", tc.name, eng, ov, tc.engine, tc.overlay)
		}
	}
}
