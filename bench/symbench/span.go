package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (the solver has no span API yet). Parent is the index of the span
// that caused this one, -1 for a root; all spans of one op share OpID.
type span struct {
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	OpID     int    `json:"op_id"`
	Workload string `json:"workload"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how the untraced pass runs the same code.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil recorder).
func (r *recorder) begin(workload, name string, parent, opID int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		Name: name, StartNS: time.Since(r.t0).Nanoseconds(),
		Parent: parent, OpID: opID, Workload: workload,
	})
	return len(r.spans) - 1
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].EndNS = now
	r.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of that interval
// its child spans cover (overlapping children are counted once).
func selfTimes(spans []span) []int64 {
	type iv struct{ lo, hi int64 }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			p := spans[s.Parent]
			lo, hi := max(s.StartNS, p.StartNS), min(s.EndNS, p.EndNS)
			if hi > lo {
				kids[s.Parent] = append(kids[s.Parent], iv{lo, hi})
			}
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ivs := kids[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, end := int64(0), s.StartNS
		for _, v := range ivs {
			if v.hi <= end {
				continue
			}
			covered += v.hi - max(v.lo, end)
			end = v.hi
		}
		self[i] = s.dur() - covered
	}
	return self
}

// spanTotal is the duration and self time of every span of one name, for the
// summary a traced run prints.
type spanTotal struct {
	Name         string
	Count        int
	TotalS, Self float64
}

func summarize(spans []span) []spanTotal {
	self := selfTimes(spans)
	idx := map[string]int{}
	var out []spanTotal
	for i, s := range spans {
		k, ok := idx[s.Name]
		if !ok {
			k = len(out)
			idx[s.Name] = k
			out = append(out, spanTotal{Name: s.Name})
		}
		out[k].Count++
		out[k].TotalS += float64(s.dur()) / 1e9
		out[k].Self += float64(self[i]) / 1e9
	}
	return out
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (complete
// "X" events, microseconds), which Perfetto and chrome://tracing open. Each
// op gets its own track; parent and op_id ride in args.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for i, s := range spans {
		events = append(events, event{
			Name: s.Name, Cat: s.Workload, Ph: "X",
			TS: float64(s.StartNS) / 1e3, Dur: float64(s.dur()) / 1e3,
			PID: 1, TID: s.OpID,
			Args: map[string]any{
				"id": i, "parent": s.Parent, "op_id": s.OpID, "workload": s.Workload,
				"start_ns": s.StartNS, "end_ns": s.EndNS,
			},
		})
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
