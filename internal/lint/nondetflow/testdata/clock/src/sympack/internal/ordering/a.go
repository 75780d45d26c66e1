// Package ordering is outside the deterministic set (fill-reducing
// orderings run once, before the deterministic replay region), so a clock
// read here that reaches no sink is not flagged.
package ordering

import "time"

func stamp() time.Time { return time.Now() }
