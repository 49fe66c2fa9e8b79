package blocks

import (
	"fmt"
	"math"
	"testing"
)

// sameBits reports whether two float64s have identical bit patterns
// (distinguishes ±0 and NaN payloads, unlike ==).
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// naiveAccel is Accel as a plain loop: the sinusoid plus one math.Sin
// per tone, summed in tone order.
func naiveAccel(v *Vibration, t float64) float64 {
	a := v.Amplitude * math.Sin(v.Phase(t))
	for i := range v.tones {
		tn := &v.tones[i]
		a += tn.amp * math.Sin(tn.w*t+tn.phi)
	}
	return a
}

// TestAccelMatchesNaiveToneSum requires Accel to return the bits of the
// plain math.Sin loop at tone counts below, at and across the kernel's
// block size, at times that keep every tone argument in the kernel's
// range, push some or all of them to the math.Sin pass, or are not
// finite.
func TestAccelMatchesNaiveToneSum(t *testing.T) {
	times := []float64{0, 1.7e-5, 0.0123, 0.5, 3.25, 97.1, -4.2, 1e4,
		1.2e6, // 55-85 Hz tones: only the faster ones cross 1<<29 rad
		3e6, 1e9, 1e300, 1e307, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, n := range []int{1, 7, 48, 129, 4096} {
		v := NewVibration(0.59, 70)
		v.ConfigureNoise(NoiseSpec{RMS: 0.8, FLo: 55, FHi: 85, Tones: n, Seed: uint64(n)})
		rng := newXoshiro256(uint64(n))
		for i := 0; i < 200; i++ {
			times = append(times, 10*rng.float64())
		}
		for _, tm := range times {
			if got, want := v.Accel(tm), naiveAccel(v, tm); !sameBits(got, want) {
				t.Fatalf("%d tones, t=%v: Accel = %v [%#016x], naive = %v [%#016x]",
					n, tm, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// TestAccelDoesNotAllocate pins the tone sum's scratch block to the
// stack: a warm source at the tone cap evaluates Accel at fresh times
// (no memo hits) without allocating.
func TestAccelDoesNotAllocate(t *testing.T) {
	v := NewVibration(0.59, 70)
	v.ConfigureNoise(NoiseSpec{RMS: 0.8, FLo: 55, FHi: 85, Tones: MaxNoiseTones, Seed: 1})
	tm := 0.0
	avg := testing.AllocsPerRun(100, func() {
		tm += 1.7e-5
		v.Accel(tm)
	})
	if avg != 0 {
		t.Fatalf("Accel allocates %.2f objects per call, want 0", avg)
	}
}

// BenchmarkNoiseAccel times one uncached Accel evaluation at the
// default tone count and at the cap.
func BenchmarkNoiseAccel(b *testing.B) {
	for _, n := range []int{DefaultNoiseTones, MaxNoiseTones} {
		b.Run(fmt.Sprintf("tones=%d", n), func(b *testing.B) {
			v := NewVibration(0.59, 70)
			v.ConfigureNoise(NoiseSpec{RMS: 0.8, FLo: 55, FHi: 85, Tones: n, Seed: 1})
			tm, sink := 0.0, 0.0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tm += 1.7e-5
				sink += v.Accel(tm)
			}
			if math.IsNaN(sink) {
				b.Fatal("NaN tone sum")
			}
		})
	}
}
