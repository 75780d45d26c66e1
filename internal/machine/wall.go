// Wall-time facade. The solver's deterministic packages are forbidden (and
// mechanically prevented, by sympacklint's nondetflow analyzer) from calling
// time.Now/time.Sleep directly: modeled time lives in Clock, and anything
// that reads the host clock could leak schedule timing into numeric state.
// The few legitimate host-clock uses — idle backoff that paces a spinning
// goroutine, watchdog tickers, wall-time statistics — route through this
// file instead, so every wall-clock touchpoint in the solver is enumerable
// here and auditable as "pacing or reporting only, never feeds factor
// bits". See DESIGN.md §10.
package machine

import "time"

// WallNow returns the host wall-clock time. For statistics and backoff
// deadlines only; factor bits must never depend on it.
func WallNow() time.Time { return time.Now() }

// WallSince returns the host wall-clock time elapsed since t0.
func WallSince(t0 time.Time) time.Duration { return time.Since(t0) }

// Backoff sleeps the calling goroutine for d of host time. It paces idle
// spins and injected stalls; it carries no modeled-time meaning (use
// Clock.Advance for that).
func Backoff(d time.Duration) { time.Sleep(d) }

// NewWallTicker returns a host-time ticker (watchdog pacing). The caller
// owns Stop.
func NewWallTicker(d time.Duration) *time.Ticker { return time.NewTicker(d) }
