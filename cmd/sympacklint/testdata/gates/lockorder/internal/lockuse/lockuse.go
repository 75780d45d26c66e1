package lockuse

import (
	"sync"

	"sympack/internal/lockdep"
)

type Server struct {
	mu sync.Mutex
	n  int
}

func (s *Server) refresh(c *lockdep.Cache) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c.Fill()
}

func (s *Server) evict(c *lockdep.Cache) {
	c.Mu.Lock()
	defer c.Mu.Unlock()
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
}
