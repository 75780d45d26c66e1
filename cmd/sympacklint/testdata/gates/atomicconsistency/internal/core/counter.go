package core

import "sync/atomic"

// done counts finished tasks through a raw pointer, so any other access
// to it can be a plain, torn one.
var done int64

func finish() { atomic.AddInt64(&done, 1) }
