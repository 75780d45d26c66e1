// Testdata for the atomicconsistency analyzer: every call of an old-style
// sync/atomic function is flagged, whether or not the same variable is
// also read or written plainly elsewhere; typed atomics are fine.
package a

import "sync/atomic"

type counters struct {
	done  int64        // accessed atomically AND plainly: the atomic calls are flagged
	typed atomic.Int64 // typed atomic: immune by construction
	local int64        // never atomic: plain access is fine
}

func (c *counters) inc() { atomic.AddInt64(&c.done, 1) } // want "atomic.AddInt64 takes a raw pointer"

func (c *counters) read() int64 {
	return c.done
}

func (c *counters) reset() {
	c.done = 0
}

func (c *counters) atomicRead() int64 { return atomic.LoadInt64(&c.done) } // want "atomic.LoadInt64 takes a raw pointer"

func (c *counters) typedOK() int64 { return c.typed.Load() }

func (c *counters) localOK() int64 {
	c.local++
	return c.local
}

var ops uint32

func bump() { atomic.AddUint32(&ops, 1) } // want "atomic.AddUint32 takes a raw pointer"

func peek() uint32 {
	return ops
}

// An all-atomic variable is flagged too: it can be a typed atomic.
var hits int32

func hit() int32 { return atomic.AddInt32(&hits, 1) } // want "atomic.AddInt32 takes a raw pointer"

// Typed atomics' methods, including the pointer-free Swap and
// CompareAndSwap, are never flagged.
func typedSwap(c *counters) bool {
	c.typed.Swap(2)
	return c.typed.CompareAndSwap(2, 3)
}

// Audited escape hatch.
func legacy(p *int64) int64 {
	//lint:ignore atomicconsistency the caller owns *p; a typed atomic cannot alias it
	return atomic.LoadInt64(p)
}
