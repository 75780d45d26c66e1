package upcxx

import "errors"

var ErrTransferFailed = errors.New("upcxx: transfer failed after retries")

func Rget(src, dst []float64) error {
	if len(src) != len(dst) {
		return ErrTransferFailed
	}
	copy(dst, src)
	return nil
}
