package server

import (
	"context"
	"errors"
	"sort"
	"sync"

	"sympack/internal/metrics"
)

// errShed is returned by admission.enter when the bounded queue is full —
// the load-shedding verdict the HTTP layer turns into 429 + Retry-After.
var errShed = errors.New("server: admission queue full")

// admission is the bounded concurrency gate in front of the factorization
// engine: at most `cap` requests hold a slot, at most `queueCap` more wait
// in FIFO order, and everything beyond that is shed immediately rather
// than queued into memory exhaustion. Slots transfer directly from a
// leaving request to the oldest waiter, so the gate never over- or
// under-admits during churn.
type admission struct {
	mu       sync.Mutex
	cap      int
	queueCap int
	inflight int
	waiters  []chan struct{} // FIFO; closed to transfer a slot

	met *metrics.ServerMetrics
}

func newAdmission(capacity, queueCap int, met *metrics.ServerMetrics) *admission {
	return &admission{cap: capacity, queueCap: queueCap, met: met}
}

// enter blocks until the request holds an execution slot, the context is
// done, or the queue is full. It returns nil on admission (the caller must
// leave() exactly once), errShed when shed, or the context's error.
func (a *admission) enter(ctx context.Context) error {
	a.mu.Lock()
	if a.inflight < a.cap {
		a.inflight++
		a.met.Inflight.Set(float64(a.inflight))
		a.mu.Unlock()
		return nil
	}
	if len(a.waiters) >= a.queueCap {
		a.mu.Unlock()
		a.met.Shed.Inc()
		return errShed
	}
	ch := make(chan struct{})
	a.waiters = append(a.waiters, ch)
	depth := len(a.waiters)
	a.mu.Unlock()
	a.met.QueueDepth.Set(float64(depth))
	a.met.QueuePeak.SetMax(float64(depth))

	select {
	case <-ch:
		// The leaving request transferred its slot: inflight already
		// accounts for us.
		return nil
	case <-ctx.Done():
		a.mu.Lock()
		for i, w := range a.waiters {
			if w == ch {
				a.waiters = append(a.waiters[:i], a.waiters[i+1:]...)
				a.met.QueueDepth.Set(float64(len(a.waiters)))
				a.mu.Unlock()
				return ctx.Err()
			}
		}
		a.mu.Unlock()
		// Not in the queue anymore: a slot transfer raced with the
		// cancellation. Accept it and hand it straight on.
		<-ch
		a.leave()
		return ctx.Err()
	}
}

// leave releases the caller's slot, handing it to the oldest waiter if one
// exists.
func (a *admission) leave() {
	a.mu.Lock()
	if len(a.waiters) > 0 {
		ch := a.waiters[0]
		a.waiters = a.waiters[1:]
		a.met.QueueDepth.Set(float64(len(a.waiters)))
		a.mu.Unlock()
		close(ch)
		return
	}
	a.inflight--
	a.met.Inflight.Set(float64(a.inflight))
	a.mu.Unlock()
}

// occupancy returns the current (inflight, queued) counts.
func (a *admission) occupancy() (inflight, queued int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inflight, len(a.waiters)
}

// latencyRing keeps the most recent request service times (wall seconds)
// for the Retry-After estimate. It is deliberately tiny: a p99 over the
// last 256 requests tracks load shifts quickly and costs one lock and one
// slot store per request.
type latencyRing struct {
	mu  sync.Mutex
	buf [256]float64
	n   int // filled slots, ≤ len(buf)
	idx int // next write position
}

func (r *latencyRing) observe(seconds float64) {
	r.mu.Lock()
	r.buf[r.idx] = seconds
	r.idx = (r.idx + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// p99 returns the 99th-percentile observed service time, or def when no
// requests have completed yet.
func (r *latencyRing) p99(def float64) float64 {
	r.mu.Lock()
	if r.n == 0 {
		r.mu.Unlock()
		return def
	}
	s := make([]float64, r.n)
	copy(s, r.buf[:r.n])
	r.mu.Unlock()
	sort.Float64s(s)
	i := (len(s) * 99) / 100
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// retryAfterSeconds estimates how long a shed client should wait before
// retrying: the observed p99 service time scaled by how many requests are
// ahead of it per execution slot, clamped to [1s, 60s] so the header is
// always sane even while the ring is cold or the math degenerate.
func retryAfterSeconds(ring *latencyRing, adm *admission) int {
	inflight, queued := adm.occupancy()
	slots := adm.cap
	if slots < 1 {
		slots = 1
	}
	est := ring.p99(1.0) * float64(inflight+queued+1) / float64(slots)
	switch {
	case est < 1:
		return 1
	case est > 60:
		return 60
	default:
		return int(est + 0.5)
	}
}
