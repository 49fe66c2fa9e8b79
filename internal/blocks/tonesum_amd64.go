//go:build amd64 && gc

package blocks

import "math"

// toneBlock is the number of tones addTones evaluates per kernel call:
// large enough that the kernel loop runs free of the accumulation's
// serial dependency, small enough to live on the stack (1 KiB).
const toneBlock = 128

// addTones returns a plus the tone sum Σ amp·sin(w·t+phi), accumulated
// in tone order with the same operations as
//
//	for _, tn := range tones { a += tn.amp * math.Sin(tn.w*t + tn.phi) }
//
// so the result is bit-identical to that loop. Each block of sines is
// computed first with the branch-free kernel and then summed. A block
// with an argument outside the kernel's range (NaN, ±Inf, |x| >= 1<<29)
// is summed by that plain loop instead, which also keeps the loop's NaN
// payloads.
func addTones(a float64, tones []noiseTone, t float64) float64 {
	var s [toneBlock]float64
	for len(tones) > 0 {
		blk := tones[:min(len(tones), toneBlock)]
		tones = tones[len(blk):]
		xs := s[:len(blk)]
		for i := range blk {
			xs[i] = blk[i].w*t + blk[i].phi
		}
		if !sinBlock(xs) {
			for i := range blk {
				a += blk[i].amp * math.Sin(blk[i].w*t+blk[i].phi)
			}
			continue
		}
		for i := range blk {
			a += blk[i].amp * xs[i]
		}
	}
	return a
}

// sinCoef and cosCoef are math.sin's polynomial coefficients (Cephes
// sin.c), bit for bit.
var sinCoef = [...]float64{
	1.58962301576546568060e-10, // 0x3de5d8fd1fd19ccd
	-2.50507477628578072866e-8, // 0xbe5ae5e5a9291f5d
	2.75573136213857245213e-6,  // 0x3ec71de3567d48a1
	-1.98412698295895385996e-4, // 0xbf2a01a019bfdf03
	8.33333333332211858878e-3,  // 0x3f8111111110f7d0
	-1.66666666666666307295e-1, // 0xbfc5555555555548
}

var cosCoef = [...]float64{
	-1.13585365213876817300e-11, // 0xbda8fa49a0861a9b
	2.08757008419747316778e-9,   // 0x3e21ee9d7b4e3f05
	-2.75573141792967388112e-7,  // 0xbe927e4f7eac4bc6
	2.48015872888517045348e-5,   // 0x3efa01a019c844f5
	-1.38888888888730564116e-3,  // 0xbf56c16c16c14f91
	4.16666666666665929218e-2,   // 0x3fa555555555554b
}

// sinBlock overwrites every x in xs with math.Sin(x), bit for bit, and
// reports true when every |x| is below 1<<29 (math's reduceThreshold).
// Otherwise — some x is NaN, ±Inf or at least 1<<29, where math.sin
// switches to Payne–Hanek reduction — it reports false and the contents
// of xs are meaningless.
//
// The loop body is math.sin with its branches replaced by masks. Every
// floating-point operation is math.sin's own, in its order: the
// Cody–Waite reduction by π/4 split into three parts, then the Cephes
// sine and cosine polynomials. Both polynomials are evaluated and the
// octant picks one by mask; the sign is applied by XOR, so ±0 keeps its
// sign as in math.Sin's early return.
//
// The build tag pins this argument to a compiler that contracts no
// x*y+z into a fused multiply-add here or in math.sin: gc on amd64 emits
// FMA only for explicit math.FMA calls, at GOAMD64=v1 and v3 alike.
func sinBlock(xs []float64) bool {
	const (
		PI4A = 7.85398125648498535156e-1  // 0x3fe921fb40000000, Pi/4 split into three parts
		PI4B = 3.77489470793079817668e-8  // 0x3e64442d00000000,
		PI4C = 2.69515142907905952645e-15 // 0x3ce8469898cc5170,

		signBit    = 1 << 63
		reduceBits = 0x41c0000000000000 // math.Float64bits(1 << 29)
	)
	var slow uint64
	for i, x := range xs {
		bits := math.Float64bits(x)
		sign := bits & signBit
		bits &^= signBit
		// 1 when |x| is NaN, ±Inf or >= 1<<29: non-negative floats
		// order like their bit patterns.
		slow |= (reduceBits - 1 - bits) >> 63
		x = math.Float64frombits(bits)

		// Integer part of x/(Pi/4). In range it is below 1<<31, so the
		// signed conversions give math.sin's values without the range
		// branches of the unsigned ones.
		j := uint64(int64(x * (4 / math.Pi)))
		j += j & 1 // map zeros to origin
		y := float64(int64(j))
		z := ((x - y*PI4A) - y*PI4B) - y*PI4C // extended precision modular arithmetic
		sign ^= (j & 4) << 61                 // reflect in x axis
		useCos := -(j >> 1 & 1)               // all ones in octants 2 and 6

		zz := z * z
		c := 1.0 - 0.5*zz + zz*zz*((((((cosCoef[0]*zz)+cosCoef[1])*zz+cosCoef[2])*zz+cosCoef[3])*zz+cosCoef[4])*zz+cosCoef[5])
		sn := z + z*zz*((((((sinCoef[0]*zz)+sinCoef[1])*zz+sinCoef[2])*zz+sinCoef[3])*zz+sinCoef[4])*zz+sinCoef[5])
		r := math.Float64bits(sn)&^useCos | math.Float64bits(c)&useCos
		xs[i] = math.Float64frombits(r ^ sign)
	}
	return slow == 0
}
