//go:build race

package exp

// raceEnabled reports whether the binary was built with the race
// detector. Timing assertions (the Table II speedup gate) skip under
// it: race instrumentation serialises memory accesses and scales poorly
// across cores, so a timing ratio measured under it says nothing about
// the production pool.
const raceEnabled = true
