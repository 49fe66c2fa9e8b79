//go:build amd64 && gc

package blocks

import (
	"math"
	"testing"
)

// toneSin evaluates one argument through the tone-sum kernel, falling
// back to math.Sin outside its range as addTones does.
func toneSin(x float64) float64 {
	xs := [1]float64{x}
	if !sinBlock(xs[:]) {
		return math.Sin(x)
	}
	return xs[0]
}

// TestToneSinMatchesMathSin pins the tone-sum kernel to math.Sin bit
// for bit over 10^7 arguments: uniform draws at three scales (the last
// straddling the 1<<29 hand-off to math.Sin's Payne–Hanek path), raw
// random bit patterns, and the special values.
func TestToneSinMatchesMathSin(t *testing.T) {
	check := func(x float64) {
		t.Helper()
		if got, want := toneSin(x), math.Sin(x); !sameBits(got, want) {
			t.Fatalf("toneSin(%v [%#016x]) = %v [%#016x], math.Sin = %v [%#016x]",
				x, math.Float64bits(x), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	const reduce = 1 << 29
	for _, x := range []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), -math.Float64frombits(0x000fffffffffffff),
		math.MaxFloat64, -math.MaxFloat64,
		reduce, -reduce, math.Nextafter(reduce, 0), math.Nextafter(reduce, math.Inf(1)),
		-math.Nextafter(reduce, 0), -math.Nextafter(reduce, math.Inf(1)),
		math.Pi / 4, math.Pi / 2, math.Pi, 2 * math.Pi, 1e-300, 1,
	} {
		check(x)
	}
	const perCase = 2_500_000
	rng := newXoshiro256(13)
	for _, scale := range []float64{100, 1e6, 6e8} {
		for i := 0; i < perCase; i++ {
			check(scale * (2*rng.float64() - 1))
		}
	}
	for i := 0; i < perCase; i++ {
		check(math.Float64frombits(rng.uint64()))
	}
}

// FuzzToneSin checks the kernel against math.Sin on arbitrary float64
// bit patterns.
func FuzzToneSin(f *testing.F) {
	for _, x := range []float64{0, math.Copysign(0, -1), 1, -1, math.Pi / 4, 1e6, 6e8,
		1 << 29, math.Nextafter(1<<29, 0), math.NaN(), math.Inf(-1), math.SmallestNonzeroFloat64} {
		f.Add(math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		x := math.Float64frombits(bits)
		if got, want := toneSin(x), math.Sin(x); !sameBits(got, want) {
			t.Fatalf("toneSin(%v [%#016x]) = %#016x, math.Sin = %#016x",
				x, bits, math.Float64bits(got), math.Float64bits(want))
		}
	})
}
