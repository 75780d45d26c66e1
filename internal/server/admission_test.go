package server

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"sympack/internal/metrics"
)

func testAdmission(capacity, queue int) *admission {
	return newAdmission(capacity, queue, metrics.NewServerMetrics(metrics.NewRegistry()))
}

func TestAdmissionCapacityAndShed(t *testing.T) {
	a := testAdmission(2, 1)
	ctx := context.Background()
	if err := a.enter(ctx); err != nil {
		t.Fatal(err)
	}
	if err := a.enter(ctx); err != nil {
		t.Fatal(err)
	}
	// Both slots held: the third caller queues; the fourth is shed.
	third := make(chan error, 1)
	go func() { third <- a.enter(ctx) }()
	waitFor(t, func() bool { _, q := a.occupancy(); return q == 1 })
	if err := a.enter(ctx); !errors.Is(err, errShed) {
		t.Fatalf("4th enter = %v, want errShed", err)
	}
	if _, queued := a.occupancy(); queued < a.queueCap {
		t.Fatalf("queued %d after a shed, want the full queue of %d", queued, a.queueCap)
	}
	// Leaving transfers the slot to the queued waiter, not to new arrivals.
	a.leave()
	if err := <-third; err != nil {
		t.Fatalf("queued waiter got %v", err)
	}
	if inflight, queued := a.occupancy(); inflight != 2 || queued != 0 {
		t.Fatalf("occupancy = %d/%d, want 2/0", inflight, queued)
	}
	a.leave()
	a.leave()
	if inflight, _ := a.occupancy(); inflight != 0 {
		t.Fatalf("inflight = %d after all leaves", inflight)
	}
}

func TestAdmissionQueuedWaiterCancel(t *testing.T) {
	a := testAdmission(1, 4)
	if err := a.enter(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	res := make(chan error, 1)
	go func() { res <- a.enter(ctx) }()
	waitFor(t, func() bool { _, q := a.occupancy(); return q == 1 })
	cancel()
	if err := <-res; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter got %v", err)
	}
	if _, queued := a.occupancy(); queued != 0 {
		t.Fatal("canceled waiter still queued")
	}
	// The held slot is unaffected and still transfers cleanly.
	ok := make(chan error, 1)
	go func() { ok <- a.enter(context.Background()) }()
	waitFor(t, func() bool { _, q := a.occupancy(); return q == 1 })
	a.leave()
	if err := <-ok; err != nil {
		t.Fatal(err)
	}
	a.leave()
}

func TestAdmissionFIFOOrder(t *testing.T) {
	a := testAdmission(1, 8)
	if err := a.enter(context.Background()); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := a.enter(context.Background()); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			a.leave()
		}()
		// Serialize arrival so queue order is 0,1,2.
		waitFor(t, func() bool { _, q := a.occupancy(); return q == i+1 })
	}
	a.leave()
	wg.Wait()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("admission order = %v, want [0 1 2]", order)
	}
}

func TestRetryAfterEstimate(t *testing.T) {
	a := testAdmission(2, 2)
	ring := &latencyRing{}
	// Cold ring: the 1s default still yields a sane clamped header.
	if got := retryAfterSeconds(ring, a); got < 1 || got > 60 {
		t.Fatalf("cold retry-after = %d, want within [1,60]", got)
	}
	for i := 0; i < 300; i++ {
		ring.observe(0.001)
	}
	if got := retryAfterSeconds(ring, a); got != 1 {
		t.Fatalf("fast-service retry-after = %d, want clamp to 1", got)
	}
	for i := 0; i < 300; i++ {
		ring.observe(500.0)
	}
	if got := retryAfterSeconds(ring, a); got != 60 {
		t.Fatalf("slow-service retry-after = %d, want clamp to 60", got)
	}
}

func TestLatencyRingP99(t *testing.T) {
	r := &latencyRing{}
	if got := r.p99(2.5); got != 2.5 {
		t.Fatalf("empty ring p99 = %g, want the default", got)
	}
	// 50 fast samples + 1 outlier: index ⌊51·99/100⌋ = 50 is the outlier.
	for i := 0; i < 50; i++ {
		r.observe(0.01)
	}
	r.observe(9.0)
	if got := r.p99(0); got != 9.0 {
		t.Fatalf("p99 = %g, want the tail observation 9.0", got)
	}
}

// waitFor polls cond with a bounded budget; these tests only wait on
// scheduler progress, never on wall-clock-dependent behavior.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(200 * time.Microsecond)
	}
}
