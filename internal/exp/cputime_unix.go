//go:build unix

package exp

import (
	"syscall"
	"time"
)

// processCPU returns the user+system CPU time this process has consumed
// so far. The experiments time engines by CPU time, as the paper's
// tables do, so a run that waits for a core on a loaded machine is not
// charged for the wait and the engine ratios stay per-step properties.
func processCPU() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
