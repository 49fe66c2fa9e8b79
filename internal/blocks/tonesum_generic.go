//go:build !(amd64 && gc)

package blocks

import "math"

// addTones returns a plus the tone sum Σ amp·sin(w·t+phi), accumulated
// in tone order. Off amd64/gc the branch-free kernel is not built: its
// bit-exactness rests on the compiler contracting no multiply-add, and
// some targets (arm64 fusion, s390x's assembly sine) break that, so the
// plain math.Sin loop is kept.
func addTones(a float64, tones []noiseTone, t float64) float64 {
	for i := range tones {
		tn := &tones[i]
		a += tn.amp * math.Sin(tn.w*t+tn.phi)
	}
	return a
}
