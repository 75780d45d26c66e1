package core

import "time"

// A schedule decision derived from the host clock: the exact violation
// the wallclock analyzer exists to stop.
var epoch = time.Now()
