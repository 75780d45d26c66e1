package nondetflow_test

import (
	"testing"

	"sympack/internal/lint/analysis"
	"sympack/internal/lint/analysistest"
	"sympack/internal/lint/nondetflow"
	"sympack/internal/lint/unusedignore"
)

// suite is the analyzer set every fixture runs under. unusedignore rides
// along to pin the taint-kill contract: audited directives must count as
// consumed, not stale.
var suite = []*analysis.Analyzer{nondetflow.Analyzer, unusedignore.Analyzer}

// Packages are listed dependency-first so route's parameter-to-sink
// summary fact is in the store by the time app's call sites are judged.
// sympack/internal/core is deterministic, so the direct rule runs there
// too.
func TestNondetFlow(t *testing.T) {
	analysistest.RunSuite(t, "testdata", suite,
		"sympack/internal/upcxx", "sympack/internal/core", "route", "app")
}

// The direct rule on clock reads, timers and unseeded randomness: core is
// in the deterministic set (positives, idioms, suppression); ordering is
// not, and stays silent.
func TestDirectClock(t *testing.T) {
	analysistest.RunSuite(t, "testdata/clock", suite,
		"sympack/internal/core", "sympack/internal/ordering")
}

// The direct rule on map ranges: core is in the deterministic set
// (positives, blessed idioms, suppression); matrix is not, and stays
// silent.
func TestDirectMapRange(t *testing.T) {
	analysistest.RunSuite(t, "testdata/maprange", suite,
		"sympack/internal/core", "sympack/internal/matrix")
}
