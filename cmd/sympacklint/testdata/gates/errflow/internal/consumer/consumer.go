package consumer

import (
	"fmt"

	"sympack/internal/prod"
)

func handle(attempt int) error {
	if err := prod.Classify(attempt); err != nil {
		return fmt.Errorf("handle: %v", err)
	}
	return nil
}
