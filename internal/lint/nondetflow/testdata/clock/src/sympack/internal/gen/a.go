// Package gen is outside the deterministic set (test-problem generators
// draw from seeded generators of their own and run before any analysis),
// so a clock read here that reaches no sink is not flagged.
package gen

import "time"

func stamp() time.Time { return time.Now() }
