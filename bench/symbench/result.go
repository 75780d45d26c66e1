package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// reading is one metric as reported: the value, its unit and, for a timing,
// the number of samples behind the median and the highest percentile that
// still has at least ten samples beyond it.
type reading struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	N       int     `json:"n,omitempty"`
	TailPct float64 `json:"tail_pct,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
}

// workloadResult is what one pass over one workload produced.
type workloadResult struct {
	Name      string             `json:"-"`
	WallS     float64            `json:"wall_s"`
	Attempted int                `json:"attempted"` // ops (requests on serve_sessions), every pass run
	Failed    int                `json:"failed"`
	EndToEnd  map[string]reading `json:"end_to_end,omitempty"`
	PerLayer  map[string]reading `json:"per_layer,omitempty"`
}

func newResult(name string, begin time.Time, attempted, failed int) *workloadResult {
	return &workloadResult{
		Name: name, WallS: time.Since(begin).Seconds(),
		Attempted: attempted, Failed: failed,
		EndToEnd: map[string]reading{}, PerLayer: map[string]reading{},
	}
}

// finite maps NaN and ±Inf (a ratio over no samples) to 0 so the result
// still encodes; the failed count says why.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// timing reports the median of samples as an end-to-end metric.
func (r *workloadResult) timing(name string, samples []float64) {
	rd := reading{Value: median(samples), Unit: unitOf(name), N: len(samples)}
	if p, v, ok := tail(samples); ok {
		rd.TailPct, rd.Tail = p, v
	}
	r.EndToEnd[name] = rd
}

func (r *workloadResult) value(name string, v float64) {
	r.EndToEnd[name] = reading{Value: finite(v), Unit: unitOf(name)}
}

func (r *workloadResult) layer(name string, v float64) {
	r.PerLayer[name] = reading{Value: finite(v), Unit: unitOf(name)}
}

// layers reports the median of every collected per-layer sample set.
func (r *workloadResult) layers(ls layerSamples) {
	for name, xs := range ls {
		r.PerLayer[name] = reading{Value: finite(median(xs)), Unit: unitOf(name), N: len(xs)}
	}
}

// merge folds the other pass over the same workload into r.
func (r *workloadResult) merge(o *workloadResult) {
	r.WallS += o.WallS
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	for k, v := range o.EndToEnd {
		r.EndToEnd[k] = v
	}
	for k, v := range o.PerLayer {
		r.PerLayer[k] = v
	}
}

// host describes where a result was measured. Measured is always true: these
// are wall-clock numbers of a real run, never the DES-modeled virtual time of
// BENCH_scaling.json.
type host struct {
	Measured   bool   `json:"measured"`
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

func describeHost() host {
	h := host{
		Measured: true, NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH,
		CPU: "unknown", Commit: "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// The toolchain stamps the enclosing git commit into the binary when it
	// builds inside a repository; a plain checkout has none.
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty && h.Commit != "unknown" {
			h.Commit += "+dirty"
		}
	}
	return h
}

// runResult is one result file: the host, the inputs and every workload run.
type runResult struct {
	Schema    string                     `json:"schema"`
	Host      host                       `json:"host"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Smoke     bool                       `json:"smoke,omitempty"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

const resultSchema = "symbench/1"

func writeResult(path string, res *runResult) error {
	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// printTable prints every metric of one workload by name, with its unit.
func printTable(w io.Writer, r *workloadResult) {
	fmt.Fprintf(w, "\n== %s: %d ops attempted, %d failed (failed_ops_ratio %.4g), %.1f s wall\n",
		r.Name, r.Attempted, r.Failed, float64(r.Failed)/float64(max(1, r.Attempted)), r.WallS)
	row := func(def metricDef, rd reading, bound bool) {
		note := ""
		if rd.N > 0 {
			note = fmt.Sprintf("  median of n=%d", rd.N)
		}
		if rd.TailPct > 0 {
			note += fmt.Sprintf(", p%g %.6g", rd.TailPct, rd.Tail)
		}
		if bound {
			note += fmt.Sprintf("  [%s is better, bound %.2f]", def.Better, def.Bound)
		}
		fmt.Fprintf(w, "  %-28s %14.6g %-7s%s\n", def.Name, rd.Value, rd.Unit, note)
	}
	for _, def := range endToEnd {
		if rd, ok := r.EndToEnd[def.Name]; ok {
			row(def, rd, true)
		}
	}
	for _, def := range perLayer {
		if rd, ok := r.PerLayer[def.Name]; ok {
			row(def, rd, false)
		}
	}
}

// driverLine is the one JSON object the builder's contract asks for on the
// last line of standard output: every end-to-end metric with -trace 0, every
// per-layer metric with -trace 1.
func driverLine(r *workloadResult, traced bool) ([]byte, error) {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, have := endToEnd, r.EndToEnd
	if traced {
		defs, have = perLayer, r.PerLayer
	}
	out := make(map[string]valueUnit, len(defs))
	for _, def := range defs {
		out[def.Name] = valueUnit{have[def.Name].Value, def.Unit}
	}
	return json.Marshal(map[string]any{
		"correct":   r.Failed == 0,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   out,
	})
}
