package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

func TestDeterminism(t *testing.T) {
	t.Parallel()
	linttest.Run(t, "testdata", lint.Determinism, "determinism_a")
}

// TestDeterminismUndesignated pins the opt-in boundary: a package without
// the //splitlint:deterministic marker and outside the designated list is
// not checked at all.
func TestDeterminismUndesignated(t *testing.T) {
	t.Parallel()
	linttest.RunClean(t, "testdata", lint.Determinism, "determinism_plain")
}

func TestZeroAlloc(t *testing.T) {
	t.Parallel()
	linttest.Run(t, "testdata", lint.ZeroAlloc, "zeroalloc_a")
}

// TestZeroAllocFused pins the analyzer on the fused broadcast-scatter and
// tiled-drain shapes of the engine hot path: the clean fused kernel stays
// silent, the once-per-worker retirement buffer rides its waiver, and
// boxing or per-tile scratch inside the marked kernels is reported.
func TestZeroAllocFused(t *testing.T) {
	t.Parallel()
	linttest.Run(t, "testdata", lint.ZeroAlloc, "zeroalloc_fused")
}

func TestCheckedErr(t *testing.T) {
	t.Parallel()
	linttest.Run(t, "testdata", lint.CheckedErr, "checkederr_a")
}

// TestCheckedErrService pins the analyzer on the sweep-service idioms
// (Validate-gated Submit, service-internal ...E variants, the forced-drain
// waiver) so a service refactor cannot move a drop out of reach.
func TestCheckedErrService(t *testing.T) {
	t.Parallel()
	linttest.Run(t, "testdata", lint.CheckedErr, "checkederr_service")
}

func TestLoudFlags(t *testing.T) {
	t.Parallel()
	linttest.Run(t, "testdata", lint.LoudFlags, "loudflags_a")
}

// TestLoudFlagsLib pins the analyzer outside package main: flags a library
// registers on a FlagSet field, bound to struct fields, must be read too.
func TestLoudFlagsLib(t *testing.T) {
	t.Parallel()
	linttest.Run(t, "testdata", lint.LoudFlags, "loudflags_lib")
}
