package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"testing"

	"sympack/internal/core"
	"sympack/internal/gen"
)

// malformedBodies are /v1/analyze bodies whose matrix arrays disagree with
// n or with each other; each must be a 400, never a panic in the handler.
var malformedBodies = []string{
	`{"matrix":{"n":-1,"colptr":[],"rowind":[]}}`,
	`{"matrix":{"n":1,"colptr":[0,5],"rowind":[]}}`,
}

// unfactorableBodies are well-formed bodies of matrices no engine can
// factor: column 0 has no structural diagonal entry, and the empty matrix.
// /v1/factor and /v1/solvecg must answer 422, the input's fault, not a 500.
var unfactorableBodies = []string{
	`{"matrix":{"n":2,"colptr":[0,1,2],"rowind":[1,1],"val":[1,1]},"b":[1,1]}`,
	`{"matrix":{"colptr":[0]}}`,
}

func TestUnfactorableMatrixIs422(t *testing.T) {
	s := startServer(t, Config{})
	for _, path := range []string{"/v1/factor", "/v1/solvecg"} {
		for _, body := range unfactorableBodies {
			if code, _ := post(t, s.Addr(), path, json.RawMessage(body), nil); code != 422 {
				t.Errorf("POST %s %s: status %d, want 422", path, body, code)
			}
		}
	}
}

func TestAnalyzeMalformedMatrixIs400(t *testing.T) {
	s := startServer(t, Config{})
	for _, body := range malformedBodies {
		if code, _ := post(t, s.Addr(), "/v1/analyze", json.RawMessage(body), nil); code != 400 {
			t.Errorf("POST %s: status %d, want 400", body, code)
		}
	}
}

// FuzzAnalyzeBody decodes an /v1/analyze body the way the handler does and
// converts its matrix: the result is an error or a valid matrix, never a
// panic.
func FuzzAnalyzeBody(f *testing.F) {
	valid, err := json.Marshal(AnalyzeRequest{Matrix: wire(gen.Laplace2D(3, 3))})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, body := range malformedBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, herr := decode[AnalyzeRequest](httptest.NewRequest("POST", "/v1/analyze", bytes.NewReader(data)))
		if herr != nil {
			return
		}
		a, err := req.Matrix.toSym(false)
		if err != nil {
			return
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("toSym accepted an invalid matrix: %v", err)
		}
	})
}

// FuzzSolveBody posts arbitrary bytes as a /v1/solve body, or as a
// /v1/solvebatch one when batch is set, through Server.Handler against one
// cached Laplace2D 3×3 factor: every response has a status of the solve
// endpoints' vocabulary, never a 500, and a 200 carries n entries per
// right-hand side.
func FuzzSolveBody(f *testing.F) {
	s := New(Config{Solver: core.Options{Ranks: 1, Workers: 1}})
	a := gen.Laplace2D(3, 3)
	factor, err := json.Marshal(FactorRequest{Matrix: wire(a)})
	if err != nil {
		f.Fatal(err)
	}
	var fr FactorResponse
	if code := serve(s, "/v1/factor", factor, &fr); code != 200 {
		f.Fatalf("factor status %d", code)
	}
	b := make([]float64, a.N)
	for i := range b {
		b[i] = float64(i + 1)
	}
	for _, req := range []any{
		SolveRequest{Factor: fr.Factor, B: b},
		SolveRequest{Factor: fr.Factor, B: b[1:]},
		SolveRequest{Factor: "deadbeef-deadbeef", B: b},
		SolveBatchRequest{Factor: fr.Factor, Bs: [][]float64{b, b}},
		SolveBatchRequest{Factor: fr.Factor, Bs: [][]float64{b, b[1:]}},
		SolveBatchRequest{Factor: fr.Factor},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		_, batch := req.(SolveBatchRequest)
		f.Add(batch, body)
	}
	// Right-hand sides this large overflow the solution, which JSON cannot
	// carry: a 400, not a 200 without a body.
	big := make([]float64, a.N)
	for i := range big {
		big[i] = 1.7e308
	}
	huge, err := json.Marshal(SolveRequest{Factor: fr.Factor, B: big})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(false, huge)
	f.Add(false, []byte(`{"factor":`))
	f.Add(true, []byte(`{"bs":[[1e308]]}`))
	f.Fuzz(func(t *testing.T, batch bool, data []byte) {
		var xs [][]float64
		var code int
		if batch {
			var resp SolveBatchResponse
			code = serve(s, "/v1/solvebatch", data, &resp)
			xs = resp.Xs
		} else {
			var resp SolveResponse
			code = serve(s, "/v1/solve", data, &resp)
			xs = [][]float64{resp.X}
		}
		switch code {
		case 200:
			for i, x := range xs {
				if len(x) != a.N {
					t.Fatalf("200 with %d entries in solution %d, want %d", len(x), i, a.N)
				}
			}
		case 400, 404, 429, 499, 503, 504:
		default:
			t.Fatalf("status %d for body %q", code, data)
		}
	})
}

// FuzzFactorBody posts arbitrary bytes as a /v1/factor body through
// Server.Handler: every response has a status of the factor endpoint's
// vocabulary, never a 500, and after each input the Laplace2D 3×3 factor
// body is still a 200 whose factor solves A·1 to ones, so no input
// poisoned the cache. The server's engine shape is fixed by its Config, so
// no body can ask for more ranks or goroutines.
func FuzzFactorBody(f *testing.F) {
	s := New(Config{Solver: core.Options{Ranks: 1, Workers: 1}})
	a := gen.Laplace2D(3, 3)
	ones := make([]float64, a.N)
	for i := range ones {
		ones[i] = 1
	}
	valid, err := json.Marshal(FactorRequest{Matrix: wire(a)})
	if err != nil {
		f.Fatal(err)
	}
	b := a.MulVec(ones)
	f.Add(valid)
	for _, body := range malformedBodies {
		f.Add([]byte(body))
	}
	f.Add([]byte(`{"matrix":{"n":2,"colptr":[0,2,3],"rowind":[0,1,1],"val":[1,2,1]}}`)) // not SPD
	f.Fuzz(func(t *testing.T, data []byte) {
		var resp FactorResponse
		switch code := serve(s, "/v1/factor", data, &resp); code {
		case 200, 400, 422, 429, 499, 503, 504:
		default:
			t.Fatalf("status %d for body %q", code, data)
		}
		var fr FactorResponse
		if code := serve(s, "/v1/factor", valid, &fr); code != 200 {
			t.Fatalf("after body %q: Laplace2D 3×3 factor status %d", data, code)
		}
		body, err := json.Marshal(SolveRequest{Factor: fr.Factor, B: b})
		if err != nil {
			t.Fatal(err)
		}
		var sr SolveResponse
		if code := serve(s, "/v1/solve", body, &sr); code != 200 {
			t.Fatalf("after body %q: Laplace2D 3×3 solve status %d", data, code)
		}
		for i, x := range sr.X {
			if math.Abs(x-1) > 1e-10 {
				t.Fatalf("after body %q: x[%d] = %.17g, want 1", data, i, x)
			}
		}
	})
}

// FuzzSolveCGBody posts arbitrary bytes as a /v1/solvecg body through
// Server.Handler: every response has a status of the endpoint's
// vocabulary, never a 500, and after each input the Laplace2D 3×3 pcg
// body with IC(1) is still a 200 that solves A·x = A·1 to ones, so no input
// poisoned the preconditioner cache.
func FuzzSolveCGBody(f *testing.F) {
	s := New(Config{Solver: core.Options{Ranks: 1, Workers: 1}})
	a := gen.Laplace2D(3, 3)
	ones := make([]float64, a.N)
	for i := range ones {
		ones[i] = 1
	}
	valid, err := json.Marshal(SolveCGRequest{
		Matrix: wire(a), B: a.MulVec(ones), Solver: "pcg", ICLevel: 1, Rtol: 1e-12,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, body := range append(malformedBodies, unfactorableBodies...) {
		f.Add([]byte(body))
	}
	f.Add([]byte(`{"matrix":{"n":1,"colptr":[0,1],"rowind":[0],"val":[4]},"b":[2],"ic_level":-1}`))
	f.Add([]byte(`{"matrix":{"n":1,"colptr":[0,1],"rowind":[0],"val":[-4]},"b":[2],"solver":"cg"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var resp SolveCGResponse
		switch code := serve(s, "/v1/solvecg", data, &resp); code {
		case 200, 400, 422, 429, 499, 503, 504:
		default:
			t.Fatalf("status %d for body %q", code, data)
		}
		var cr SolveCGResponse
		if code := serve(s, "/v1/solvecg", valid, &cr); code != 200 || !cr.Converged {
			t.Fatalf("after body %q: Laplace2D 3×3 pcg status %d, converged %v", data, code, cr.Converged)
		}
		for i, x := range cr.X {
			if math.Abs(x-1) > 1e-10 {
				t.Fatalf("after body %q: x[%d] = %.17g, want 1", data, i, x)
			}
		}
	})
}

// serve posts body to path through s.Handler and decodes a 200's body into
// out; it returns the status.
func serve(s *Server, path string, body []byte, out any) int {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
	if rec.Code == 200 {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			return -1 // a 200 whose body is not the endpoint's response
		}
	}
	return rec.Code
}
