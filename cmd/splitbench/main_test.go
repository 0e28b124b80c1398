package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/cliutil/clitest"
)

// reexec runs splitbench with args in a child process: this test binary,
// re-executed into the calling test, which calls run. It returns the
// combined output and the exit status.
func reexec(t *testing.T, args ...string) (string, int) {
	t.Helper()
	if os.Getenv("SPLITBENCH_TEST_RUN") == "1" {
		os.Args = append([]string{"splitbench"}, args...)
		os.Exit(run())
	}
	cmd := exec.Command(os.Args[0], "-test.run=^"+t.Name()+"$")
	cmd.Env = append(os.Environ(), "SPLITBENCH_TEST_RUN=1")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("%v: err = %v, want a non-zero exit; output:\n%s", args, err, out)
	}
	return string(out), ee.ExitCode()
}

// TestRemovedTuneFlagFailsLoudly runs splitbench with -tune nofuse: the
// cache-tuning knobs were removed with the flag, so the flag package must
// reject it as a usage error (exit 2) that names -tune, not accept it.
func TestRemovedTuneFlagFailsLoudly(t *testing.T) {
	out, code := reexec(t, "-tune", "nofuse")
	if code != 2 {
		t.Fatalf("-tune nofuse: exit status %d, want 2; output:\n%s", code, out)
	}
	if !strings.Contains(out, "-tune") {
		t.Errorf("-tune nofuse: output %q does not name -tune", out)
	}
}

// TestEngineFlagRejections holds splitbench to the engine-flag rejection
// table it shares with wsplit.
func TestEngineFlagRejections(t *testing.T) {
	clitest.CheckEngineFlagRejections(t, reexec)
}
