// Package app exercises errflow end to end: direct erasures, the
// cross-package fact path through prod.Fetch's %w summary, local wrap
// helpers with via chains, swallows, and the consulted negatives.
package app

import (
	"errors"
	"fmt"

	"prod"
	"sympack/internal/faults"
)

type opErr struct{ msg string }

func (e *opErr) Error() string { return e.msg }

// rewrap demotes a cross-package taxonomy error with %v.
func rewrap() error {
	err := prod.Fetch(1)
	if err != nil {
		return fmt.Errorf("app: rewrap: %v", err) // want "taxonomy error \\(faults\\.ErrTransient\\) flows into a %v rewrap \\(severs errors\\.Is; use %w\\)"
	}
	return nil
}

// wrapOK keeps the chain intact; %w is the blessed shape.
func wrapOK() error {
	err := prod.Fetch(2)
	if err != nil {
		return fmt.Errorf("app: wrap: %w", err)
	}
	return nil
}

// recreate launders the sentinel through its message text.
func recreate() error {
	err := prod.Fetch(3)
	if err != nil {
		return errors.New(err.Error()) // want "taxonomy error \\(faults\\.ErrTransient\\) flows into errors\\.New over taxonomy-derived text \\(severs errors\\.Is\\)"
	}
	return nil
}

// swallow drops the taxonomy verdict without reading it.
func swallow() error {
	err := prod.Fetch(4)
	if err != nil {
		return nil // want "taxonomy error \\(faults\\.ErrTransient\\) swallowed: checked against nil then discarded"
	}
	return nil
}

// retryOK consults the taxonomy before discarding: transient faults are
// retryable by design, so the swallow is deliberate and visible.
func retryOK() error {
	err := prod.Fetch(5)
	if err != nil {
		if errors.Is(err, faults.ErrTransient) {
			return nil
		}
		return err
	}
	return nil
}

// transient is a local classifier helper.
func transient(err error) bool {
	return errors.Is(err, faults.ErrTransient)
}

// retryViaHelper consults the taxonomy through a same-package classifier:
// the verdict is read, so the discard is deliberate, not a swallow.
func retryViaHelper() error {
	err := prod.Fetch(9)
	if err != nil {
		if transient(err) {
			return nil
		}
		return err
	}
	return nil
}

// retryViaFact consults the taxonomy through prod.Retryable, whose
// consulted-parameter fact crossed the package boundary.
func retryViaFact() error {
	err := prod.Fetch(10)
	if err != nil {
		if prod.Retryable(err) {
			return nil
		}
		return err
	}
	return nil
}

// assert bypasses errors.As on a sentinel-derived error.
func assert() bool {
	err := prod.Fetch(6)
	_, ok := err.(*opErr) // want "taxonomy error \\(faults\\.ErrTransient\\) flows into a type assertion \\(wrapping breaks it; use errors\\.As\\)"
	return ok
}

// classify bypasses errors.As with a type switch.
func classify() string {
	err := prod.Fetch(7)
	switch err.(type) { // want "taxonomy error \\(faults\\.ErrTransient\\) flows into a type switch \\(wrapping breaks it; use errors\\.As\\)"
	case *opErr:
		return "op"
	default:
		return "other"
	}
}

// demote is a local helper whose parameter is erased; callers with
// taxonomy-tainted arguments are reported at the call site.
func demote(err error) error {
	return fmt.Errorf("app: demoted: %v", err)
}

func relabelLocal() error {
	err := prod.Fetch(8)
	return demote(err) // want "taxonomy error \\(faults\\.ErrTransient\\) flows into a %v rewrap \\(severs errors\\.Is; use %w\\) via app\\.demote"
}

// opaque shows the precision contract: an error of unknown provenance is
// not taxonomy-tainted, so erasing it is not errflow's business.
func opaque(err error) error {
	if err != nil {
		return nil
	}
	return errors.New("fresh")
}
