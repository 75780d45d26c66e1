package a

import "sync"

// A deferred unlock releases at return: the lock is still held at the
// acquisition after the defer, so ij orders I before J and closes a cycle
// with ji.
type I struct{ mu sync.Mutex }
type J struct{ mu sync.Mutex }

func ij(i *I, j *J) {
	i.mu.Lock()
	defer i.mu.Unlock()
	j.mu.Lock() // want "lock order cycle"
	j.mu.Unlock()
}

func ji(i *I, j *J) {
	j.mu.Lock()
	i.mu.Lock()
	i.mu.Unlock()
	j.mu.Unlock()
}
