package core

import (
	"errors"
	"fmt"
	"strings"

	"sympack/internal/faults"
	"sympack/internal/gpu"
)

// Typed error taxonomy for the resilient runtime. ErrStalled and
// ErrNotPositiveDefinite (core.go) predate it; these wrap or re-export the
// lower layers' classes so callers can branch with errors.Is against core
// alone.
var (
	// ErrTransient classifies recoverable injected faults (dropped or
	// delayed signals, failing transfers, transient device allocations).
	// A factorization should never abort with only transient faults.
	ErrTransient = faults.ErrTransient

	// ErrDeviceFailed marks a permanently dead device. The owning rank
	// demotes itself to CPU kernels; the job continues.
	ErrDeviceFailed = gpu.ErrDeviceFailed

	// ErrLostSignal marks a stall in which ranks were still waiting on
	// source blocks after exercising the re-request protocol — the
	// signature of irrecoverably lost announcements (or a dead producer).
	ErrLostSignal = errors.New("core: lost signal")

	// ErrCanceled is returned when a factorization or solve is abandoned
	// because Options.Context was canceled or its deadline expired. In a
	// factorization the cancellation fails the runtime like any other
	// fault: every scheduling loop stops on the abort at its task-pull
	// boundary, so in-flight kernels finish but no new task starts. A
	// canceled factorization returns no Factor; the analysis it consumed
	// remains valid for a retry.
	ErrCanceled = errors.New("core: canceled")
)

// RankHealth is one rank's progress snapshot inside a HealthReport.
type RankHealth struct {
	Rank            int
	Done, Total     int   // executed vs owned tasks (the LTQ view)
	RTQDepth        int   // ready tasks queued but not yet run
	PendingSignals  int   // signals enqueued on the rank but not yet handled
	OutstandingDeps int   // source blocks still awaited (wanted set)
	ReRequests      int64 // lost-signal re-requests this rank has sent
}

// HealthReport is the stall watchdog's structured diagnosis: per-rank queue
// depths and dependency debt, read from the engines' gauges (single atomic
// loads, so the watchdog can take it race-free mid-run), plus the job-wide
// fault line (FaultSummary) of a metrics gather taken at the same moment.
type HealthReport struct {
	Ranks  []RankHealth
	Faults string
}

// Waiting reports whether any rank is still owed source blocks — with
// re-requests already sent, the lost-signal signature.
func (h *HealthReport) Waiting() bool {
	for _, r := range h.Ranks {
		if r.OutstandingDeps > 0 {
			return true
		}
	}
	return false
}

// ReRequested reports whether any rank exercised the re-request protocol.
func (h *HealthReport) ReRequested() bool {
	for _, r := range h.Ranks {
		if r.ReRequests > 0 {
			return true
		}
	}
	return false
}

func (h *HealthReport) String() string {
	var b strings.Builder
	b.WriteString("health:")
	for _, r := range h.Ranks {
		fmt.Fprintf(&b, " [r%d %d/%d rtq=%d sig=%d deps=%d rereq=%d]",
			r.Rank, r.Done, r.Total, r.RTQDepth, r.PendingSignals,
			r.OutstandingDeps, r.ReRequests)
	}
	fmt.Fprintf(&b, " faults{%s}", h.Faults)
	return b.String()
}
