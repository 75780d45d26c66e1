// Package upcxx is a stand-in for the runtime's one-sided transfers: a
// get whose retries run out returns an error wrapping ErrTransferFailed.
package upcxx

import (
	"fmt"

	"sympack/internal/faults"
)

var ErrTransferFailed = fmt.Errorf("upcxx: transfer failed after retries: %w", faults.ErrTransient)

type Rank struct{ lossy bool }

func (r *Rank) retry(kind string) error {
	if r.lossy {
		return fmt.Errorf("%s: %w", kind, ErrTransferFailed)
	}
	return nil
}

// Rget carries retry's result out through its summary fact.
func (r *Rank) Rget(src, dst []float64) error {
	if err := r.retry("rget"); err != nil {
		return err
	}
	copy(dst, src)
	return nil
}
