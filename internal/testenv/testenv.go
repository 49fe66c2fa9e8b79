// Package testenv answers questions tests ask about the binary running
// them.
package testenv

import "runtime/debug"

// Race reports whether the binary was built with the race detector.
// Wall-clock assertions (speedup gates) skip under it: race
// instrumentation serialises memory accesses and scales poorly across
// cores, so a timing ratio measured under it says nothing about the
// production build. A -race build records "-race=true" in its build
// settings; other builds carry no -race key.
func Race() bool {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
