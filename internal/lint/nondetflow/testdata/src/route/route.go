// Package route wraps wire emission behind a helper; its parameter-to-sink
// flow must ride the exported summary fact into importing packages.
package route

import "sympack/internal/upcxx"

func Publish(r *upcxx.Rank, data []float64) {
	r.NewArrayFrom(data)
}
