package prod

import (
	"fmt"

	"sympack/internal/faults"
)

func Classify(attempt int) error {
	return fmt.Errorf("attempt %d: %w", attempt, faults.ErrTransient)
}
