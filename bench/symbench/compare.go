package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// loadSet reads one result file, or every *.json result file of a directory.
// A set's value for a metric is the median across its runs: two single runs
// on a shared host differ by more than the bounds, sets of five or more do
// not.
func loadSet(path string) ([]*runResult, error) {
	files := []string{path}
	if fi, err := os.Stat(path); err != nil {
		return nil, err
	} else if fi.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	var set []*runResult
	for _, f := range files {
		buf, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r runResult
		if err := json.Unmarshal(buf, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Schema != resultSchema {
			return nil, fmt.Errorf("%s: schema %q, want %q", f, r.Schema, resultSchema)
		}
		set = append(set, &r)
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s: no result files", path)
	}
	return set, nil
}

// valuesOf collects one metric of one workload across the runs of a set.
func valuesOf(set []*runResult, workload, metric string, layer bool) []float64 {
	var xs []float64
	for _, r := range set {
		w := r.Workloads[workload]
		if w == nil {
			continue
		}
		m := w.EndToEnd
		if layer {
			m = w.PerLayer
		}
		if rd, ok := m[metric]; ok {
			xs = append(xs, rd.Value)
		}
	}
	return xs
}

// worsening is how much worse b is than a as a share of a, signed so that a
// positive number is a regression whichever direction is better.
func worsening(def metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if def.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareSets prints, per workload and metric, the two sets' medians, how
// much worse the new one is, and each set's interquartile spread as a share
// of its median. It reports whether any end-to-end metric got worse by more
// than its bound; per-layer metrics are shown and never gate.
func compareSets(w io.Writer, oldPath, newPath string) (worse bool, err error) {
	oldSet, err := loadSet(oldPath)
	if err != nil {
		return false, err
	}
	newSet, err := loadSet(newPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "old: %s (%d runs)   new: %s (%d runs)\n", oldPath, len(oldSet), newPath, len(newSet))
	for _, wl := range workloads {
		header := false
		for _, tab := range []struct {
			defs  []metricDef
			layer bool
		}{{endToEnd, false}, {perLayer, true}} {
			for _, def := range tab.defs {
				a, b := valuesOf(oldSet, wl.Name, def.Name, tab.layer), valuesOf(newSet, wl.Name, def.Name, tab.layer)
				if len(a) == 0 || len(b) == 0 {
					continue
				}
				if !header {
					fmt.Fprintf(w, "\n== %s\n  %-28s %-7s %14s %14s %9s %8s %8s\n", wl.Name, "metric", "unit", "old", "new", "worse by", "spread", "spread")
					header = true
				}
				ma, mb := median(a), median(b)
				d := worsening(def, ma, mb)
				verdict := ""
				if !tab.layer {
					verdict = fmt.Sprintf("  within %.2f", def.Bound)
					if d > def.Bound {
						verdict = fmt.Sprintf("  WORSE than bound %.2f", def.Bound)
						worse = true
					}
				}
				fmt.Fprintf(w, "  %-28s %-7s %14.6g %14.6g %+8.1f%% %7.1f%% %7.1f%%%s\n",
					def.Name, def.Unit, ma, mb, 100*d, 100*spread(a), 100*spread(b), verdict)
			}
		}
	}
	return worse, nil
}
