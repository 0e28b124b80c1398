package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestRemovedTuneFlagFailsLoudly runs splitbench with -tune nofuse in a
// child process (this test binary, re-executed into run): the cache-tuning
// knobs were removed with the flag, so the flag package must reject it as
// a usage error (exit 2) that names -tune, not accept it.
func TestRemovedTuneFlagFailsLoudly(t *testing.T) {
	if os.Getenv("SPLITBENCH_TEST_RUN") == "1" {
		os.Args = []string{"splitbench", "-tune", "nofuse"}
		os.Exit(run())
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestRemovedTuneFlagFailsLoudly$")
	cmd.Env = append(os.Environ(), "SPLITBENCH_TEST_RUN=1")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("-tune nofuse: err = %v, want exit status 2; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "-tune") {
		t.Errorf("-tune nofuse: output %q does not name -tune", out)
	}
}
