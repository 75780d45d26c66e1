package wrap

import "sympack/internal/upcxx"

func Swallow(f upcxx.Future) {}
