package server

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"sympack/internal/gen"
)

// malformedBodies are /v1/analyze bodies whose matrix arrays disagree with
// n or with each other; each must be a 400, never a panic in the handler.
var malformedBodies = []string{
	`{"matrix":{"n":-1,"colptr":[],"rowind":[]}}`,
	`{"matrix":{"n":1,"colptr":[0,5],"rowind":[]}}`,
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
