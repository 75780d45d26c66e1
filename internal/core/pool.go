// Intra-rank execution. A rank is Options.Workers goroutines: the rank's own
// goroutine runs the Fig. 3 loop (factorLoop, engine.go) — poll, pop,
// execute — as executor lane 0 and as the rank's only caller of
// upcxx.Progress, so RPC handlers, inbox draining, health mirroring and the
// lost-signal re-request protocol are serialized on it; Workers-1 helper
// goroutines (workerLoop) only pull ready tasks from the same RTQ.
// Workers == 1 is the same loop with no helpers.
package core

import (
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

// readyQueue is the RTQ as a binary min-heap under engine.before, the
// scheduling policy's order. Priorities (seq, depth) are cached in the task
// at push time, so the comparator is pure and the heap never reaches back
// into mutable engine state; because before is a strict total order, the pop
// sequence is a function of the pushed set alone.
type readyQueue struct {
	e     *engine
	items []task
}

func (q *readyQueue) Len() int { return len(q.items) }

// push inserts t, sifting it up from the new leaf.
func (q *readyQueue) push(t task) {
	q.items = append(q.items, t)
	i := len(q.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.e.before(t, q.items[parent]) {
			break
		}
		q.items[i] = q.items[parent]
		i = parent
	}
	q.items[i] = t
}

// pop removes the before-minimum of a non-empty queue: the last leaf takes
// the root's place and sifts down.
func (q *readyQueue) pop() task {
	top := q.items[0]
	n := len(q.items) - 1
	t := q.items[n]
	q.items = q.items[:n]
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if child+1 < n && q.e.before(q.items[child+1], q.items[child]) {
			child++
		}
		if !q.e.before(q.items[child], t) {
			break
		}
		q.items[i] = q.items[child]
		i = child
	}
	if n > 0 {
		q.items[i] = t
	}
	return top
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
