// Intra-rank execution. A rank is Options.Workers goroutines: the rank's own
// goroutine runs the Fig. 3 loop (factorLoop, engine.go) — Progress, take,
// execute — as executor lane 0 and as the rank's only caller of
// upcxx.Progress, so the signal handler, with the gets it issues, and the
// lost-signal re-request protocol are serialized on it; Workers-1 helper
// goroutines (workerLoop) only take ready tasks: their own lane's next task,
// else the same RTQ's oldest.
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
	ls := &e.lanes[lane]
	e.mu.Lock()
	for {
		if e.stopped || e.doneTasks >= e.totalTasks || rt.ShouldAbort() {
			e.mu.Unlock()
			return
		}
		t, ok := e.take(ls)
		if !ok {
			e.met.workerWaits.Inc()
			e.cond.Wait()
			continue
		}
		e.mu.Unlock()
		e.execute(t, ls)
		e.complete(t, ls)
		e.mu.Lock()
	}
}

// complete accounts one task that ran on lane ls: an applied update — a
// fan-out U task or an apply task — passes its target's turn on
// (passTurn), the task leaves the in-flight set unless that readied the
// lane's next task, which takes its place, and it counts toward the rank's
// share (the last one releases helpers parked on an empty queue) and on
// the tasks_done gauge the stall watchdog sums.
func (e *engine) complete(t task, ls *laneScratch) {
	e.mu.Lock()
	if t.kind == taskApply || t.kind == taskUpdate && !e.form.DeliversContributions() {
		e.passTurn(t.id, ls)
	}
	if !ls.carried {
		e.inflight--
	}
	e.doneTasks++
	e.met.tasksDone.Set(float64(e.doneTasks))
	if e.doneTasks >= e.totalTasks {
		e.cond.Broadcast()
	}
	e.mu.Unlock()
}
