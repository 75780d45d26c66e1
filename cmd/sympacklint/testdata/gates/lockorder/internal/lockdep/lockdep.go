package lockdep

import "sync"

type Cache struct {
	Mu sync.Mutex
	n  int
}

func (c *Cache) Fill() {
	c.Mu.Lock()
	c.n++
	c.Mu.Unlock()
}
