package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// ReportSchema versions the run-report JSON document.
const ReportSchema = "sympack-run-report/v1"

// RunReport is the machine-readable summary of one solver run: problem
// identity, configuration, headline performance and the full merged
// metric snapshot. Every command writes the same schema
// (BENCH_<cmd>_<ts>.json), so benchmark trajectories accumulate in one
// greppable format across PRs.
type RunReport struct {
	Schema       string   `json:"schema"`
	Command      string   `json:"command"`
	Timestamp    string   `json:"timestamp,omitempty"` // RFC3339, supplied by the caller
	Matrix       string   `json:"matrix,omitempty"`
	N            int      `json:"n,omitempty"`
	Nnz          int64    `json:"nnz,omitempty"`
	Ranks        int      `json:"ranks,omitempty"`
	Workers      int      `json:"workers,omitempty"`
	GPUs         int      `json:"gpus,omitempty"`
	WallSeconds  float64  `json:"wall_seconds,omitempty"`
	ModelSeconds float64  `json:"model_seconds,omitempty"`
	GFlops       float64  `json:"gflops,omitempty"` // factor flops / modeled seconds / 1e9
	Metrics      []Series `json:"metrics,omitempty"`
	Figures      []Figure `json:"figures,omitempty"`
}

// Figure is one benchmark curve — e.g. a strong-scaling series from
// cmd/benchfig reproducing Figs. 7–12.
type Figure struct {
	Name   string  `json:"name"`
	Matrix string  `json:"matrix,omitempty"`
	Phase  string  `json:"phase,omitempty"` // "factor" or "solve"
	Points []Point `json:"points"`
}

// Point is one (node count, modeled seconds) sample of a scaling curve.
// Iterative-solve figures additionally record the Krylov iteration count
// behind the time-to-solution (absent — zero — on direct-solver curves).
type Point struct {
	Nodes      int     `json:"nodes"`
	Seconds    float64 `json:"seconds"`
	Baseline   float64 `json:"baseline_seconds,omitempty"`
	Iterations int     `json:"iterations,omitempty"`
}

// WriteRunReport writes the report as indented JSON, defaulting the
// schema field.
func WriteRunReport(w io.Writer, rep *RunReport) error {
	if rep.Schema == "" {
		rep.Schema = ReportSchema
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// WriteReportFile stamps rep with now and writes it to path — or, when path
// is "auto", to ReportFilename(rep.Command, now) in the working directory —
// and returns the path written. It is the one way a command's -report flag
// produces its document.
func WriteReportFile(path string, rep *RunReport, now time.Time) (string, error) {
	if path == "auto" {
		path = ReportFilename(rep.Command, now)
	}
	rep.Timestamp = now.UTC().Format(time.RFC3339)
	fh, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := WriteRunReport(fh, rep); err != nil {
		fh.Close()
		return "", err
	}
	return path, fh.Close()
}

// ReportFilename returns the canonical BENCH_<cmd>_<ts>.json name for a
// report written at t (the caller sources t through the machine wall
// facade or its own clock; this package never reads the clock itself).
func ReportFilename(cmd string, t time.Time) string {
	return fmt.Sprintf("BENCH_%s_%s.json", cmd, t.UTC().Format("20060102T150405Z"))
}
