package trace

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
	"time"
)

func TestRecorderBasics(t *testing.T) {
	r := New()
	s1 := r.Begin()
	time.Sleep(time.Millisecond)
	r.End(0, "POTRF", s1, "sn=1")
	s2 := r.Begin()
	r.End(1, "GEMM", s2, "upd=3")
	if r.Len() != 2 {
		t.Fatalf("len = %d", r.Len())
	}
	evs := r.Events()
	if evs[0].Kind != "POTRF" || evs[1].Kind != "GEMM" {
		t.Fatalf("order wrong: %+v", evs)
	}
	if evs[0].End < evs[0].Start {
		t.Fatal("negative duration")
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	s := r.Begin()
	r.End(0, "X", s, "")
	if r.Len() != 0 || r.Events() != nil {
		t.Fatal("nil recorder should be inert")
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	r := New()
	for i := 0; i < 5; i++ {
		s := r.Begin()
		r.End(int32(i%2), "TRSM", s, "blk=\"quoted\"")
	}
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(parsed) != 5 {
		t.Fatalf("events = %d", len(parsed))
	}
	if parsed[0]["ph"] != "X" || parsed[0]["name"] != "TRSM" {
		t.Fatalf("event shape wrong: %v", parsed[0])
	}
}

func TestChromeTraceFaultCategory(t *testing.T) {
	r := New()
	s := r.Begin()
	r.End(0, "POTRF", s, "sn=1")
	s = r.Begin()
	r.End(1, "fault:re-request", s, "blk=7")
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	cats := map[string]string{}
	for _, e := range parsed {
		cats[e["name"].(string)] = e["cat"].(string)
	}
	if cats["POTRF"] != "task" || cats["fault:re-request"] != "fault" {
		t.Fatalf("categories wrong: %v", cats)
	}
}

func TestChromeTraceEmpty(t *testing.T) {
	r := New()
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed []any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil || len(parsed) != 0 {
		t.Fatalf("empty trace should be []: %v %s", err, buf.String())
	}
}

func TestSummaryAndUtilization(t *testing.T) {
	// Fixed times, which no loaded host can stretch: three 200 µs GEMMs
	// back to back on rank 0, then a 100 µs POTRF on rank 1.
	r := New()
	const us = time.Microsecond
	for i := 0; i < 3; i++ {
		start := time.Duration(i) * 200 * us
		r.events = append(r.events, Event{Rank: 0, Kind: "GEMM", Start: start, End: start + 200*us})
	}
	r.events = append(r.events, Event{Rank: 1, Kind: "POTRF", Start: 600 * us, End: 700 * us})
	sum := r.Summary()
	if len(sum) != 2 {
		t.Fatalf("kinds = %d", len(sum))
	}
	if sum[0].Kind != "GEMM" || sum[0].Count != 3 {
		t.Fatalf("summary order/count wrong: %+v", sum)
	}
	util := r.RankUtilization()
	if len(util) != 2 {
		t.Fatalf("ranks = %d", len(util))
	}
	for rank, u := range util {
		if u <= 0 || u > 1 {
			t.Fatalf("rank %d utilization %g out of range", rank, u)
		}
	}
	if util[0] <= util[1] {
		t.Fatalf("rank 0 (busier) should have higher utilization: %v", util)
	}
}

// TestSummaryTiesByKind: kinds of equal busy time come out by name, not in
// map order.
func TestSummaryTiesByKind(t *testing.T) {
	r := New()
	for i, kind := range []string{"TRSM", "GEMM", "SYRK", "POTRF"} {
		start := time.Duration(i) * time.Second
		r.events = append(r.events, Event{Kind: kind, Start: start, End: start + time.Millisecond})
	}
	for trial := 0; trial < 10; trial++ {
		var got []string
		for _, s := range r.Summary() {
			got = append(got, s.Kind)
		}
		if want := []string{"GEMM", "POTRF", "SYRK", "TRSM"}; !slices.Equal(got, want) {
			t.Fatalf("summary order %v, want %v", got, want)
		}
	}
}
