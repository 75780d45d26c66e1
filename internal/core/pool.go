// Intra-rank execution. A rank is Options.Workers goroutines: the rank's own
// goroutine runs the Fig. 3 loop (factorLoop, engine.go) — poll, pop,
// execute — as executor lane 0 and as the rank's only caller of
// upcxx.Progress, so RPC handlers, inbox draining, health mirroring and the
// lost-signal re-request protocol are serialized on it; Workers-1 helper
// goroutines (workerLoop) only pull ready tasks from the same RTQ.
// Workers == 1 is the same loop with no helpers.
package core

import (
	"container/heap"
	"fmt"
	"sync"
)

// run executes this rank's share of the factorization: it starts the
// Workers-1 helpers, runs the Fig. 3 loop on the calling (rank) goroutine,
// and stops the helpers when the loop returns.
func (e *engine) run() {
	rt := e.r.Runtime()
	var wg sync.WaitGroup
	for lane := 1; lane < e.workers; lane++ {
		wg.Add(1)
		go func(lane int32) {
			defer wg.Done()
			defer func() {
				// A panicking kernel must fail the job like it does on the
				// rank goroutine (whose recover in upcxx.Run catches it), not
				// crash the process.
				if p := recover(); p != nil {
					rt.Fail(fmt.Errorf("%w: rank %d worker %d panic: %v", ErrInternal, e.r.ID, lane, p))
					e.cond.Broadcast()
				}
			}()
			e.workerLoop(lane)
		}(int32(lane))
	}
	// Deferred so a kernel panic on lane 0 (kernels run outside e.mu) still
	// releases helpers parked on cond before it unwinds to upcxx.Run.
	defer func() {
		e.mu.Lock()
		e.stopped = true
		e.cond.Broadcast()
		e.mu.Unlock()
		wg.Wait()
	}()
	e.factorLoop()
}

// workerLoop is a helper executor: it pulls tasks until the rank's share is
// done or the job stops. Kernels run outside e.mu; only queue operations and
// completion accounting hold it. Idle helpers park on cond and are woken by
// push (new ready task), by the last completion, or by run's shutdown
// broadcast. Helpers never call upcxx.Progress.
func (e *engine) workerLoop(lane int32) {
	rt := e.r.Runtime()
	e.mu.Lock()
	for {
		if e.stopped || e.doneTasks >= e.totalTasks || rt.ShouldAbort() {
			e.mu.Unlock()
			return
		}
		t, ok := e.pop()
		if !ok {
			e.met.workerWaits.Inc()
			e.cond.Wait()
			continue
		}
		e.inflight++
		e.mu.Unlock()

		// Task-pull boundary: a canceled context stops the worker before
		// the kernel starts, not after.
		if e.checkCanceled() {
			e.mu.Lock()
			e.inflight--
			e.mu.Unlock()
			return
		}
		e.execute(t, lane)
		e.complete()
		e.mu.Lock()
	}
}

// complete accounts one executed task: it leaves the in-flight set, counts
// toward the rank's share (the last one releases helpers parked on an empty
// queue) and toward the job-wide watchdog counter.
func (e *engine) complete() {
	e.mu.Lock()
	e.inflight--
	e.doneTasks++
	if e.doneTasks >= e.totalTasks {
		e.cond.Broadcast()
	}
	e.mu.Unlock()
	if e.progress != nil {
		e.progress.Add(1)
	}
}

// readyQueue is the RTQ as a binary heap ordered by the scheduling policy.
// Priorities (seq, depth) are cached in the task at push time, so Less is
// pure and the heap never reaches back into mutable engine state.
type readyQueue struct {
	e     *engine
	items []task
}

func (q *readyQueue) Len() int           { return len(q.items) }
func (q *readyQueue) Less(i, j int) bool { return q.e.before(q.items[i], q.items[j]) }
func (q *readyQueue) Swap(i, j int)      { q.items[i], q.items[j] = q.items[j], q.items[i] }

func (q *readyQueue) Push(x any) { q.items = append(q.items, x.(task)) }

func (q *readyQueue) Pop() any {
	old := q.items
	n := len(old)
	t := old[n-1]
	q.items = old[:n-1]
	return t
}

// before is the strict total priority order between two ready tasks:
//
//	FIFO          — push order (seq ascending)
//	LIFO          — reverse push order (seq descending)
//	CriticalPath  — longer remaining ancestor chain first, ties broken by
//	                task kind (diag before factor before update: finishing
//	                a panel unblocks more than starting another update)
//	                and then by id, so equal-depth tasks pop in a fixed
//	                order instead of whatever the queue's memory layout
//	                yielded.
//
// seq is unique per rank and (kind, id) identifies a task, so every branch
// is a total order: two distinct tasks never compare equal, which makes the
// pop sequence deterministic for a given push sequence.
func (e *engine) before(a, b task) bool {
	switch e.opt.Scheduling {
	case SchedLIFO:
		return a.seq > b.seq
	case SchedCriticalPath:
		if a.depth != b.depth {
			return a.depth > b.depth
		}
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		return a.id < b.id
	default: // SchedFIFO
		return a.seq < b.seq
	}
}

// Assert the heap contract at compile time.
var _ heap.Interface = (*readyQueue)(nil)
