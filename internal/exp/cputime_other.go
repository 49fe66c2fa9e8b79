//go:build !unix

package exp

import "time"

var clockStart = time.Now()

// processCPU falls back to the monotonic wall clock where getrusage is
// not available; see cputime_unix.go.
func processCPU() time.Duration { return time.Since(clockStart) }
