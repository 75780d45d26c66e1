package core

import (
	"math"
	"testing"

	"sympack/internal/gen"
)

// TestProtocolCounts pins what the fan-out protocol moves and what it costs
// on the model clock, on Laplace3D 10³ at 4 ranks with no faults, under the
// paper's 2D block-cyclic map and under the default subtree map. The 2D
// constants were recorded from the closure-RPC implementation the typed
// signals replaced, so a change to the protocol's transport must leave them
// as they are:
//
//   - the factorization's one-sided gets: 2 089 host-host transfers of
//     254 632 bytes (one per remote item a rank consumes);
//   - the factorization's signals: 2 089, exactly (recorded from the typed
//     signals, on a run that sent no re-request), and no re-request: a rank
//     re-requests only when the whole job is quiescent, which a fault-free
//     run never is before it ends;
//   - one SolveDistributed: 2 374 signals, exactly — the solve has no
//     re-requests, so its message count is a function of the structure;
//   - Stats.ModelSeconds 1.6221648624667e-3 and SolveStats.ModelSeconds
//     1.7792871623779575e-3, to 1e-12 relative: each rank's clock sums the
//     same charges, in an order that arrival order may permute.
//
// The subtree map keeps each deep subtree and its vector segments on one
// rank: 277 gets of 131 568 bytes, 277 factorization signals and 256 solve
// signals.
func TestProtocolCounts(t *testing.T) {
	for _, c := range []struct {
		mapping                    MappingKind
		gets, getBytes, factorSigs float64
		solveSigs                  float64
		factorModel, solveModel    float64
	}{
		{Map2DCyclic, 2089, 254632, 2089, 2374, 1.6221648624667e-3, 1.7792871623779575e-3},
		{MapSubtree, 277, 131568, 277, 256, 4.1373056965394957e-4, 4.0577825732031331e-4},
	} {
		t.Run(c.mapping.String(), func(t *testing.T) {
			a := gen.Laplace3D(10, 10, 10)
			b := make([]float64, a.N)
			for i := range b {
				b[i] = 1
			}
			near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-12*want }
			f, err := Factorize(a, Options{Ranks: 4, Mapping: c.mapping})
			if err != nil {
				t.Fatal(err)
			}
			m := f.Metrics
			if got := m.Value("sympack_upcxx_rma_gets_total"); got != c.gets {
				t.Errorf("factorization: %g gets, want %g", got, c.gets)
			}
			if got := m.Value("sympack_upcxx_path_transfers_total", "path", "host-host"); got != c.gets {
				t.Errorf("factorization: %g host-host transfers, want %g", got, c.gets)
			}
			if got := m.Value("sympack_upcxx_path_bytes_total", "path", "host-host"); got != c.getBytes {
				t.Errorf("factorization: %g host-host bytes, want %g", got, c.getBytes)
			}
			if rr := m.Value("sympack_core_rerequests_total"); rr != 0 {
				t.Errorf("factorization: %g re-requests without a fault", rr)
			}
			sent := m.Value("sympack_upcxx_signals_sent_total")
			if sent != c.factorSigs {
				t.Errorf("factorization: %g signals, want %g", sent, c.factorSigs)
			}
			if !near(f.Stats.ModelSeconds, c.factorModel) {
				t.Errorf("factorization: %.17g modeled seconds, want %.17g", f.Stats.ModelSeconds, c.factorModel)
			}
			if _, err := f.SolveDistributed(b); err != nil {
				t.Fatal(err)
			}
			if got := m.Value("sympack_upcxx_signals_sent_total") - sent; got != c.solveSigs {
				t.Errorf("distributed solve: %g signals, want %g", got, c.solveSigs)
			}
			if !near(f.SolveStats.ModelSeconds, c.solveModel) {
				t.Errorf("distributed solve: %.17g modeled seconds, want %.17g", f.SolveStats.ModelSeconds, c.solveModel)
			}
		})
	}
}
