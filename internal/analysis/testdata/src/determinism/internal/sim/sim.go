// Package sim exercises the determinism analyzer's simulator-package rules
// on the shared run loop package: it is held to the same discipline as the
// machine models it drives.
package sim

import "time"

// Run must not consult the wall clock: its cadence is counted in
// instructions.
func Run(n int) int64 {
	start := time.Now() // want `calls time.Now`
	for i := 0; i < n; i++ {
		_ = i
	}
	return start.UnixNano()
}
