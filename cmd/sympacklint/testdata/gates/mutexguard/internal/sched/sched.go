package sched

import "sync"

// Queue is shared between a producer and the workers that drain it.
type Queue struct {
	mu    sync.Mutex
	items []int // guarded by q.mu
}

func (q *Queue) Push(x int) {
	q.mu.Lock()
	q.items = append(q.items, x)
	q.mu.Unlock()
}

// Len reads the guarded slice without taking the lock: a torn read under
// a concurrent Push.
func (q *Queue) Len() int { return len(q.items) }
