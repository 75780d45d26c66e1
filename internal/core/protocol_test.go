package core

import (
	"math"
	"testing"

	"sympack/internal/gen"
)

// TestProtocolCounts pins what the fan-out protocol moves and what it costs
// on the model clock, on Laplace3D 10³ at 4 ranks with no faults. Every
// constant was recorded from the closure-RPC implementation the typed
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
func TestProtocolCounts(t *testing.T) {
	const (
		gets        = 2089
		getBytes    = 254632
		factorSigs  = 2089
		solveSigs   = 2374
		factorModel = 1.6221648624667e-3
		solveModel  = 1.7792871623779575e-3
	)
	a := gen.Laplace3D(10, 10, 10)
	b := make([]float64, a.N)
	for i := range b {
		b[i] = 1
	}
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-12*want }
	f, err := Factorize(a, Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	m := f.Metrics
	if got := m.Value("sympack_upcxx_rma_gets_total"); got != gets {
		t.Errorf("factorization: %g gets, want %d", got, gets)
	}
	if got := m.Value("sympack_upcxx_path_transfers_total", "path", "host-host"); got != gets {
		t.Errorf("factorization: %g host-host transfers, want %d", got, gets)
	}
	if got := m.Value("sympack_upcxx_path_bytes_total", "path", "host-host"); got != getBytes {
		t.Errorf("factorization: %g host-host bytes, want %d", got, getBytes)
	}
	if rr := m.Value("sympack_core_rerequests_total"); rr != 0 {
		t.Errorf("factorization: %g re-requests without a fault", rr)
	}
	sent := m.Value("sympack_upcxx_signals_sent_total")
	if sent != factorSigs {
		t.Errorf("factorization: %g signals, want %d", sent, factorSigs)
	}
	if !near(f.Stats.ModelSeconds, factorModel) {
		t.Errorf("factorization: %.17g modeled seconds, want %.17g", f.Stats.ModelSeconds, factorModel)
	}
	if _, err := f.SolveDistributed(b); err != nil {
		t.Fatal(err)
	}
	if got := m.Value("sympack_upcxx_signals_sent_total") - sent; got != solveSigs {
		t.Errorf("distributed solve: %g signals, want %d", got, solveSigs)
	}
	if !near(f.SolveStats.ModelSeconds, solveModel) {
		t.Errorf("distributed solve: %.17g modeled seconds, want %.17g", f.SolveStats.ModelSeconds, solveModel)
	}
}
