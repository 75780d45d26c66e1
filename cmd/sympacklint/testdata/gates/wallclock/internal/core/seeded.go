package core

import "time"

// A schedule decision derived from the host clock: the exact violation
// nondetflow's direct rule exists to stop.
var epoch = time.Now()
