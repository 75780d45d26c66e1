package faults

import "errors"

var ErrTransient = errors.New("transient fault")
