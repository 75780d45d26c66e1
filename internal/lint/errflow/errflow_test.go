package errflow_test

import (
	"testing"

	"sympack/internal/lint/analysis"
	"sympack/internal/lint/analysistest"
	"sympack/internal/lint/errflow"
)

// Packages are listed dependency-first so upcxx's and prod's result-flow
// summary facts are in the store by the time app's erasure and discard
// sites are judged.
func TestErrFlow(t *testing.T) {
	analysistest.RunSuite(t, "testdata", []*analysis.Analyzer{errflow.Analyzer},
		"sympack/internal/faults", "sympack/internal/upcxx", "prod", "app")
}
