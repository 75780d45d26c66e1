// Testdata for nondetflow's direct rule: host-clock and unseeded
// randomness use inside a deterministic package.
package core

import (
	"math/rand"
	"time"
)

func timings() time.Duration {
	t0 := time.Now()                  // want "direct time.Now"
	time.Sleep(20 * time.Microsecond) // want "direct time.Sleep"
	return time.Since(t0)             // want "direct time.Since"
}

func jitter() int {
	return rand.Intn(16) // want "unseeded rand.Intn"
}

func shuffleTasks(tasks []int) {
	rand.Shuffle(len(tasks), func(i, j int) { // want "unseeded rand.Shuffle"
		tasks[i], tasks[j] = tasks[j], tasks[i]
	})
}

// A function value reference leaks the clock just as a call does.
var clockFn = time.Now // want "direct time.Now"

// Explicitly seeded generators replay deterministically and are allowed;
// rand.Rand methods are not global-state draws.
func seeded(seed int64, tasks []int) int {
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(tasks), func(i, j int) {
		tasks[i], tasks[j] = tasks[j], tasks[i]
	})
	return rng.Intn(4)
}

// Pure duration arithmetic never reads the clock.
func budget(d time.Duration) time.Duration { return 3 * d / 2 }

// Audited escape hatch.
func pacing() {
	//lint:ignore nondetflow idle backoff paces the host scheduler only; never feeds factor bits
	time.Sleep(time.Microsecond)
}
