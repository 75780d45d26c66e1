// Command symbench is the repository's wall-clock benchmark: five named
// workloads, end-to-end metrics a user of the solver would see, and per-layer
// metrics timed from outside by calling each layer's exported functions.
// Every number it prints was measured on the host it ran on; the modeled
// numbers stay in BENCH_scaling.json. See bench/README.md.
//
//	symbench -seed 1                                   every workload, both passes
//	symbench -workload flan_w1 -seed 1 -seconds 12 -trace 0   one pass, as the driver runs it
//	symbench -compare old/ new/                        relative differences, gated on the bounds
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// config is one run's inputs and sizing.
type config struct {
	seed    int64
	seconds float64
	smoke   bool // shrunken inputs, for the tests

	setupRuns     int // complete set-ups per untraced pass; setup_s is their median
	warmups       int // untimed ops (sessions on serve_sessions) at the end of a set-up
	minOps        int // timed ops of a direct workload, however short the window
	minTracedOps  int // iterations of the traced pass
	servePatterns int // patterns encoded in set-up; a session uses one
	serveSolves   int // /v1/solve requests after each /v1/factor
}

func newConfig(seed int64, seconds float64, smoke bool) *config {
	c := &config{
		seed: seed, seconds: seconds, smoke: smoke,
		setupRuns: 3, warmups: 2, minOps: 3, minTracedOps: 3,
		// Two clients get through about three patterns a second on the
		// reference host; patterns left over when the window closes are
		// not posted.
		servePatterns: max(8, int(4*seconds)),
		serveSolves:   12,
	}
	if smoke {
		c.setupRuns, c.warmups, c.minOps, c.minTracedOps = 1, 1, 2, 1
		c.servePatterns, c.serveSolves = 4, 2
	}
	return c
}

func (c *config) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// timeSetups runs a workload's complete set-up setupRuns times and returns
// the seconds each took; setup_s is their median. release drops the state of
// the previous set-up, outside the timer; the last state is the one measured.
func (c *config) timeSetups(release func(), setup func() error) ([]float64, error) {
	var secs []float64
	for r := 0; r < c.setupRuns; r++ {
		release()
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return secs, nil
}

// runPass runs one pass (untraced or traced) over one workload.
func runPass(name string, cfg *config, rec *recorder) (*workloadResult, error) {
	if name == serveName {
		if rec != nil {
			return runServeTraced(cfg, rec)
		}
		return runServeUntraced(cfg)
	}
	for i := range directDefs {
		if d := &directDefs[i]; d.name == name {
			if rec != nil {
				return d.runTraced(cfg, rec)
			}
			return d.runUntraced(cfg)
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// runAll runs the given passes (false: untraced, true: traced) over the
// named workloads, one workload after the other, and returns the combined
// result with the recorder of the traced pass, if there was one.
func runAll(cfg *config, names []string, passes []bool) (*runResult, *recorder, error) {
	result := &runResult{
		Schema: resultSchema, Host: describeHost(), Seed: cfg.seed, Seconds: cfg.seconds, Smoke: cfg.smoke,
		Workloads: map[string]*workloadResult{},
	}
	var rec *recorder
	for _, traced := range passes {
		var passRec *recorder
		if traced {
			rec = newRecorder()
			passRec = rec
		}
		for _, name := range names {
			res, err := runPass(name, cfg, passRec)
			if err != nil {
				return nil, nil, err
			}
			if prev := result.Workloads[name]; prev != nil {
				prev.merge(res)
			} else {
				result.Workloads[name] = res
			}
		}
	}
	return result, rec, nil
}

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload and print the driver's one-line JSON result last (default: every workload)")
		seed     = flag.Int64("seed", 1, "every input is generated from this seed")
		seconds  = flag.Float64("seconds", 12, "how long each pass over each workload measures")
		trace    = flag.Int("trace", -1, "0: untraced pass (end-to-end metrics); 1: traced pass (per-layer metrics); default: both, or 0 with -workload")
		traceOut = flag.String("trace-out", "", "where the traced pass writes its spans as Chrome trace-event JSON (default: a temporary file)")
		out      = flag.String("out", "", "also write the result, with the host descriptor, to this JSON file")
		smoke    = flag.Bool("smoke", false, "shrunken inputs: checks the harness, measures nothing worth keeping")
		compare  = flag.Bool("compare", false, "compare two result files or directories of result files: symbench -compare OLD NEW")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: symbench -compare OLD NEW (each a result file or a directory of them)")
		}
		worse, err := compareSets(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(2, "%v", err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 || *seconds <= 0 || *trace < -1 || *trace > 1 {
		fatal(2, "usage: symbench [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-trace-out FILE] [-out FILE]")
	}

	names := []string{*workload}
	passes := []bool{*trace == 1} // traced?
	if *workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
		if *trace == -1 {
			passes = []bool{false, true}
		}
	}

	result, rec, err := runAll(newConfig(*seed, *seconds, *smoke), names, passes)
	if err != nil {
		fatal(1, "%v", err)
	}

	fmt.Printf("symbench: measured on %s, %d cpus, GOMAXPROCS %d, %s, commit %s; seed %d, %g s per pass\n",
		result.Host.CPU, result.Host.NProc, result.Host.GoMaxProcs, result.Host.GoVersion, result.Host.Commit, *seed, *seconds)
	for _, name := range names {
		printTable(os.Stdout, result.Workloads[name])
	}
	if rec != nil {
		path, err := writeSpans(*traceOut, rec)
		if err != nil {
			fatal(1, "write spans: %v", err)
		}
		fmt.Printf("\n%d spans written to %s (open in https://ui.perfetto.dev); time by span name:\n", len(rec.spans), path)
		for _, s := range summarize(rec.spans) {
			fmt.Printf("  %-32s n=%-5d total %10.4f s  self %10.4f s\n", s.Name, s.Count, s.TotalS, s.Self)
		}
	}
	if *out != "" {
		if err := writeResult(*out, result); err != nil {
			fatal(1, "write result: %v", err)
		}
	}
	if *workload != "" {
		line, err := driverLine(result.Workloads[*workload], *trace == 1)
		if err != nil {
			fatal(1, "encode result: %v", err)
		}
		fmt.Printf("%s\n", line)
	}
}

// writeSpans writes the recorder's spans to path, or to a new temporary file
// when path is empty, and returns where they went.
func writeSpans(path string, rec *recorder) (string, error) {
	if path == "" {
		f, err := os.CreateTemp("", "symbench-spans-*.json")
		if err != nil {
			return "", err
		}
		path = f.Name()
		if err := f.Close(); err != nil {
			return "", err
		}
	}
	return path, writeChromeTrace(path, rec.spans)
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "symbench: "+format+"\n", args...)
	os.Exit(code)
}
