package app

import (
	"errors"

	"prod"
	"sympack/internal/upcxx"
)

// The discarded shapes: the get's failure is never seen, so a block that
// did not arrive is used as if it had.

func bare(r *upcxx.Rank, src, dst []float64) {
	r.Rget(src, dst) // want "taxonomy error \\(upcxx\\.ErrTransferFailed\\) discarded by a bare call"
}

func blank(r *upcxx.Rank, src, dst []float64) {
	_ = r.Rget(src, dst) // want "taxonomy error \\(upcxx\\.ErrTransferFailed\\) discarded by a blank assignment"
}

func launched(r *upcxx.Rank, src, dst []float64) {
	go r.Rget(src, dst) // want "taxonomy error \\(upcxx\\.ErrTransferFailed\\) discarded by a go statement"
}

func deferred(r *upcxx.Rank, src, dst []float64) {
	defer r.Rget(src, dst) // want "taxonomy error \\(upcxx\\.ErrTransferFailed\\) discarded by a defer statement"
}

// wrapped discards prod.Fetch, whose sentinel-derived result crosses the
// package boundary in its summary fact.
func wrapped() {
	prod.Fetch(11) // want "taxonomy error \\(faults\\.ErrTransient\\) discarded by a bare call"
}

// The kept shapes.

func checked(r *upcxx.Rank, src, dst []float64) bool {
	if err := r.Rget(src, dst); err != nil {
		return false
	}
	return true
}

func propagated(r *upcxx.Rank, src, dst []float64) error {
	return r.Rget(src, dst)
}

func consulted(r *upcxx.Rank, src, dst []float64) bool {
	err := r.Rget(src, dst)
	return errors.Is(err, upcxx.ErrTransferFailed)
}

// tidy's error carries no sentinel, so discarding it is not errflow's
// business.
func tidy() error { return errors.New("fresh") }

func untainted() {
	tidy()
	_ = tidy()
}

// describe's text carries the taxonomy but is not an error: dropping it
// loses no failure, since describe read the error.
func describe(err error) string { return "app: " + err.Error() }

func described(r *upcxx.Rank, src, dst []float64) {
	_ = describe(r.Rget(src, dst))
}
