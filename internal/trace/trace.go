// Package trace records per-task execution events from the solver's ranks
// and exports them in the Chrome trace-event format (chrome://tracing,
// Perfetto), giving the Gantt view of the fan-out schedule that papers in
// this area (including symPACK's antecedents) use to study pipeline
// behaviour.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Event is one completed unit of work on a rank.
type Event struct {
	Rank   int32
	Lane   int32  // intra-rank execution lane: 0 is the rank goroutine, 1.. its helpers
	Kind   string // "POTRF", "TRSM", "SYRK", "GEMM", "rget", "poll", ...
	Start  time.Duration
	End    time.Duration
	Detail string // e.g. "sn=12" or "blk=140"
}

// Recorder accumulates events from concurrent ranks. A nil *Recorder is
// valid and records nothing, so call sites need no guards.
type Recorder struct {
	mu     sync.Mutex
	t0     time.Time
	events []Event
}

// New returns a recorder whose clock starts now.
func New() *Recorder {
	// The recorder is the one component whose job is real wall time:
	// Chrome-trace timestamps profile the host execution, by design, and
	// never feed solver state. The suppressions below are the audited
	// false positives of sympacklint's wallclock analyzer (DESIGN.md §10).
	//lint:ignore wallclock trace timestamps profile host wall time by design; never feed factor bits
	return &Recorder{t0: time.Now()}
}

// Begin returns the current offset for a subsequent End call.
func (r *Recorder) Begin() time.Duration {
	if r == nil {
		return 0
	}
	//lint:ignore wallclock trace timestamps profile host wall time by design; never feed factor bits
	return time.Since(r.t0)
}

// End records an event that started at the offset returned by Begin, on the
// rank's lane 0.
func (r *Recorder) End(rank int32, kind string, start time.Duration, detail string) {
	r.EndLane(rank, 0, kind, start, detail)
}

// EndLane records an event on a specific execution lane of a rank. The
// engine gives each worker its own lane (0 is the rank goroutine) so the
// Chrome trace shows intra-rank concurrency as parallel rows under the
// rank's process group.
func (r *Recorder) EndLane(rank, lane int32, kind string, start time.Duration, detail string) {
	if r == nil {
		return
	}
	//lint:ignore wallclock,nondetflow trace timestamps profile host wall time by design; never feed factor bits
	now := time.Since(r.t0)
	r.mu.Lock()
	r.events = append(r.events, Event{Rank: rank, Lane: lane, Kind: kind, Start: start, End: now, Detail: detail})
	r.mu.Unlock()
}

// Len returns the recorded event count.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Events returns a copy of the recorded events sorted by start time.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]Event(nil), r.events...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// WriteChromeTrace emits the events as a Chrome trace-event JSON array: one
// complete ("X") event per task, with the rank as the process id and the
// intra-rank lane (worker index) as the thread id, so a multi-worker run
// renders one row per executor goroutine grouped under its rank. Load the
// file in chrome://tracing or ui.perfetto.dev.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	evs := r.Events()
	for i, e := range evs {
		sep := ","
		if i == len(evs)-1 {
			sep = ""
		}
		// Injected-fault and recovery events ("fault:*" kinds) get their
		// own category so they can be toggled independently of the task
		// Gantt rows in the trace viewer.
		cat := "task"
		if strings.HasPrefix(e.Kind, "fault:") {
			cat = "fault"
		}
		// Timestamps and durations are microseconds in the format.
		_, err := fmt.Fprintf(bw,
			"  {\"name\":%q,\"cat\":%q,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%d,\"args\":{\"detail\":%q}}%s\n",
			e.Kind, cat,
			float64(e.Start.Nanoseconds())/1e3,
			float64((e.End-e.Start).Nanoseconds())/1e3,
			e.Rank, e.Lane, e.Detail, sep)
		if err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("]\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// KindSummary aggregates total busy time and call counts per event kind.
type KindSummary struct {
	Kind  string
	Count int
	Busy  time.Duration
}

// Summary returns per-kind aggregates sorted by descending busy time.
func (r *Recorder) Summary() []KindSummary {
	agg := map[string]*KindSummary{}
	for _, e := range r.Events() {
		s := agg[e.Kind]
		if s == nil {
			s = &KindSummary{Kind: e.Kind}
			agg[e.Kind] = s
		}
		s.Count++
		s.Busy += e.End - e.Start
	}
	out := make([]KindSummary, 0, len(agg))
	for _, s := range agg {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Busy > out[j].Busy })
	return out
}

// RankUtilization returns, per rank, the fraction of the makespan the rank
// spent inside recorded events — the load-balance view of a run.
func (r *Recorder) RankUtilization() map[int32]float64 {
	evs := r.Events()
	if len(evs) == 0 {
		return nil
	}
	var makespan time.Duration
	busy := map[int32]time.Duration{}
	for _, e := range evs {
		busy[e.Rank] += e.End - e.Start
		if e.End > makespan {
			makespan = e.End
		}
	}
	out := make(map[int32]float64, len(busy))
	for rank, b := range busy {
		out[rank] = float64(b) / float64(makespan)
	}
	return out
}
