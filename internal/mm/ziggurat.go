package mm

import "math"

// Standard normal draws by the ziggurat method of Marsaglia & Tsang,
// "The Ziggurat Method for Generating Random Variables" (J. Stat. Softw.
// 5(8), 2000): the 128-strip variant with the same tables, fast test,
// wedge test and base-strip tail as math/rand's NormFloat64. On a 32-bit
// draw that passes the fast test both return the same float64, bit for
// bit (TestZigguratFastPathMatchesMathRand).

const (
	zigR = 3.442619855899      // right edge of the base strip, where the tail begins
	zigV = 9.91256303526217e-3 // area of each of the 128 strips
)

// zigK, zigW and zigF are the ziggurat tables: strip i accepts the draw j
// at once when |j| < zigK[i], scales it to x = j·zigW[i], and bounds the
// density over its wedge by zigF[i] ≤ φ(x)/φ(0) ≤ zigF[i-1].
var zigK, zigW, zigF = zigTables()

// zigTables computes the tables by Marsaglia & Tsang's zigset recurrence,
// in float64 then rounded to the table types exactly as their C code
// does; the result equals math/rand's hard-coded tables entry for entry.
func zigTables() (k [128]uint32, w, f [128]float32) {
	const m1 = 1 << 31
	dn, tn := zigR, zigR
	q := zigV / math.Exp(-0.5*dn*dn)
	k[0] = uint32(dn / q * m1)
	w[0] = float32(q / m1)
	w[127] = float32(dn / m1)
	f[0] = 1
	f[127] = float32(math.Exp(-0.5 * dn * dn))
	for i := 126; i >= 1; i-- {
		dn = math.Sqrt(-2 * math.Log(zigV/dn+math.Exp(-0.5*dn*dn)))
		k[i+1] = uint32(dn / tn * m1)
		tn = dn
		f[i] = float32(math.Exp(-0.5 * dn * dn))
		w[i] = float32(dn / m1)
	}
	return k, w, f
}

// zigFast runs the ziggurat's fast test on the signed 32-bit draw j: its
// strip is the low 7 bits, x the draw scaled into that strip, and ok
// reports whether x lies inside the strip's rectangle and is therefore
// a standard normal draw as is (about 97% of draws).
func zigFast(j int32) (x float64, ok bool) {
	i := uint32(j) & 0x7F
	x = float64(j) * float64(zigW[i])
	m := j >> 31 // all ones when j < 0
	return x, uint32((j^m)-m) < zigK[i]
}

// normalSlow finishes a draw j that failed the fast test. It keeps j's
// strip and x for the wedge test (or, in the base strip, its sign for the
// tail), and only a rejection starts over with a fresh draw: redrawing at
// the first failed fast test would never sample the wedges or the tail.
func (s *CryptoSource) normalSlow(j int32) float64 {
	for {
		i := j & 0x7F
		x := float64(j) * float64(zigW[i])
		if i == 0 {
			// Base strip: Marsaglia's (1964) tail sampler beyond zigR.
			for {
				x = -math.Log(s.Float64()) * (1 / zigR)
				y := -math.Log(s.Float64())
				if y+y >= x*x {
					break
				}
			}
			if j > 0 {
				return zigR + x
			}
			return -zigR - x
		}
		if zigF[i]+float32(s.Float64())*(zigF[i-1]-zigF[i]) < float32(math.Exp(-0.5*x*x)) {
			return x
		}
		j = int32(s.words.Uint64())
		if x, ok := zigFast(j); ok {
			return x
		}
	}
}
