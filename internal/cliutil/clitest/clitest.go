// Package clitest holds the command-line checks shared by the CLIs built on
// cliutil.EngineFlags, so wsplit and splitbench are held to one table.
package clitest

import (
	"strings"
	"testing"
)

// EngineFlagRejections lists engine-flag misuses every CLI built on
// cliutil.EngineFlags must reject as a usage error (exit 2) whose message
// names the offending flag.
var EngineFlagRejections = []struct {
	Name string
	Args []string
	Flag string
}{
	{"plane-simd", []string{"-plane", "simd"}, "-plane"},
	{"engine-goroutine", []string{"-engine", "goroutine"}, "-engine"},
	{"delay-without-drop", []string{"-delay", "2"}, "-delay"},
	{"faultseed-without-plan", []string{"-faultseed", "3"}, "-faultseed"},
	{"drop-out-of-range", []string{"-drop", "1.5"}, "-drop"},
	{"plane-with-batch", []string{"-plane", "bit", "-batch"}, "-plane"},
	{"drop-with-batch", []string{"-drop", "0.1", "-batch"}, "-drop"},
}

// CheckEngineFlagRejections runs every EngineFlagRejections row as a
// subtest through reexec, which runs the CLI with the given arguments in a
// child process and returns its combined output and exit status.
func CheckEngineFlagRejections(t *testing.T, reexec func(t *testing.T, args ...string) (string, int)) {
	for _, row := range EngineFlagRejections {
		t.Run(row.Name, func(t *testing.T) {
			out, code := reexec(t, row.Args...)
			if code != 2 {
				t.Fatalf("%v: exit status %d, want 2; output:\n%s", row.Args, code, out)
			}
			// A usage dump lists every flag, so it would name any of them.
			if !strings.Contains(out, row.Flag) || strings.Contains(out, "Usage of") {
				t.Errorf("%v: output does not name %s in its own message:\n%s", row.Args, row.Flag, out)
			}
		})
	}
}
