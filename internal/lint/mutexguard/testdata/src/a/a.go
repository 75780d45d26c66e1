package a

import "sync"

type eng struct {
	mu    sync.Mutex
	queue []int // guarded by e.mu
	n     int   // guarded by e.mu
	done  bool
}

func (e *eng) locked() {
	e.mu.Lock()
	e.queue = append(e.queue, 1)
	e.mu.Unlock()
}

func (e *eng) deferred() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.n
}

func (e *eng) bare() {
	e.queue = nil // want "guarded by e.mu"
	e.done = true // unguarded field: fine
}

// pop removes the head entry. Callers hold e.mu.
func (e *eng) pop() int {
	v := e.queue[0]
	e.queue = e.queue[1:]
	return v
}

func (e *eng) seededInBody() int {
	// callers hold e.mu
	return e.n
}

func (e *eng) earlyExit() {
	e.mu.Lock()
	if len(e.queue) == 0 {
		e.mu.Unlock()
		return
	}
	e.n++
	e.mu.Unlock()
}

func fresh() *eng {
	e := &eng{}
	e.queue = []int{1}
	return e
}

func (e *eng) closure() {
	e.mu.Lock()
	go func() {
		e.n++ // want "guarded by e.mu"
	}()
	e.mu.Unlock()
}

func (e *eng) deferredCleanup() {
	e.mu.Lock()
	defer func() {
		e.queue = nil
		e.mu.Unlock()
	}()
	e.n++
}

func (e *eng) wrongLock(other *eng) {
	other.mu.Lock()
	e.n++ // want "guarded by e.mu"
	other.mu.Unlock()
}

// Merge soundness: an unlock on one branch arm means the lock is NOT
// provably held after the join.
func (e *eng) unlockOneArm(c bool) {
	e.mu.Lock()
	if c {
		e.mu.Unlock()
	}
	e.n++ // want "guarded by e.mu"
	if !c {
		e.mu.Unlock()
	}
}

// Merge soundness, the other direction: locked on every arm IS held
// after the join — the v2 walk reported this as a false positive.
func (e *eng) lockBothArms(c bool) {
	if c {
		e.mu.Lock()
	} else {
		e.mu.Lock()
	}
	e.n++
	e.mu.Unlock()
}

// A loop that releases inside its body must not leak "held" to the
// statement after the back-edge join.
func (e *eng) loopRelease(xs []int) {
	for range xs {
		e.mu.Lock()
		e.queue = append(e.queue, 1)
		e.mu.Unlock()
	}
	e.n++ // want "guarded by e.mu"
}

// An early-exit arm that returns does not poison the fallthrough path:
// the join only merges paths that actually reach it.
func (e *eng) earlyReturnKeepsHeld() {
	e.mu.Lock()
	if len(e.queue) == 0 {
		e.mu.Unlock()
		return
	}
	e.n++
	e.mu.Unlock()
}

// Unlock inside a switch case drops the lock at the merge.
func (e *eng) switchRelease(k int) {
	e.mu.Lock()
	switch k {
	case 0:
		e.mu.Unlock()
	default:
		e.queue = nil
	}
	e.n++ // want "guarded by e.mu"
}

type rw struct {
	mu   sync.RWMutex
	view []int // guarded by r.mu
}

func (r *rw) read() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.view[0]
}

type typo struct {
	lk sync.Mutex
	// guarded by t.lock
	x int // want "unknown mutex"
}

func use(t *typo) int { return t.x }

// --- call-graph lock summaries ---

// lockUp acquires on the caller's behalf (the lockAndX idiom).
func (e *eng) lockUp() { e.mu.Lock() }

// release unlocks a mutex it did not take.
func (e *eng) release() { e.mu.Unlock() }

// drainLocked documents its contract; callers hold e.mu.
func (e *eng) drainLocked() {
	e.queue = nil
	e.n = 0
}

// summaryAcquire: the helper's Acquires summary marks the lock held, so
// the access after the call is clean — and the release summary drops it.
func (e *eng) summaryAcquire() {
	e.lockUp()
	e.n++
	e.release()
	e.n++ // want "guarded by e.mu"
}

// requiresHeld: calling a callers-hold method with the lock held is the
// documented contract.
func (e *eng) requiresHeld() {
	e.mu.Lock()
	e.drainLocked()
	e.mu.Unlock()
}

// requiresMissing: the same call without the lock is the other half of
// the convention, previously unchecked.
func (e *eng) requiresMissing() {
	e.drainLocked() // want "documents 'callers hold e.mu' but the mutex is not held"
}

// requiresViaSummary: an Acquires helper satisfies a Requires callee.
func (e *eng) requiresViaSummary() {
	e.lockUp()
	e.drainLocked()
	e.release()
}

// freshRequires: a constructor touching its unpublished value is exempt
// from the callers-hold contract like any guarded access.
func newEng() *eng {
	e := &eng{}
	e.drainLocked()
	return e
}
