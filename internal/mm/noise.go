package mm

import (
	cryptorand "crypto/rand"
	//lint:allow noiserand: ChaCha8 (math/rand/v2) is the CSPRNG behind CryptoSource, seeded from crypto/rand
	randv2 "math/rand/v2"
	"sync"
)

// NoiseSource is the randomness a release draws its noise from. It is the
// subset of *rand.Rand the mechanisms use, so a deterministic *rand.Rand
// satisfies it directly for tests and reproducible experiments, while
// production releases use a source backed by the operating system's
// CSPRNG (NewCryptoSeededSource). Seeding from a counter or the wall
// clock makes every "random" release predictable to anyone who can guess
// the seed — a privacy hole, not just a testing nicety.
type NoiseSource interface {
	// Float64 returns a uniform draw in [0,1).
	Float64() float64
	// NormFloat64 returns a standard normal draw.
	NormFloat64() float64
}

// addNormal adds sigma·z to every element of dst, each z an independent
// standard normal draw from r: through the bulk kernel when r is the
// production source, otherwise one NormFloat64 per element in index
// order, so a seeded *rand.Rand yields exactly the bits a draw-per-element
// loop does.
func addNormal(r NoiseSource, dst []float64, sigma float64) {
	if s, ok := r.(*CryptoSource); ok {
		s.AddNormal(dst, sigma)
		return
	}
	for i := range dst {
		dst[i] += sigma * r.NormFloat64()
	}
}

// addLaplace adds an independent Laplace(0, b) draw to every element of
// dst, through the bulk kernel when r is the production source and in
// index order otherwise, like addNormal.
func addLaplace(r NoiseSource, dst []float64, b float64) {
	if s, ok := r.(*CryptoSource); ok {
		s.AddLaplace(dst, b)
		return
	}
	for i := range dst {
		dst[i] += laplace(r, b)
	}
}

// cryptoRekeyWords is how many 64-bit words a cryptoWords stream serves
// before re-keying its generator with fresh OS entropy (1 MiB of output
// per 32-byte getrandom). Re-keying bounds how much output ever depends
// on one key and gives forward secrecy at release granularity: by the
// time an attacker could inspect process memory, the keys behind past
// releases are long gone.
const cryptoRekeyWords = 1 << 17

// cryptoWords is the word stream behind CryptoSource. Merely *seeding*
// math/rand from crypto/rand is not enough: rand.NewSource reduces the
// seed modulo 2³¹−1, leaving ~2.1e9 possible noise streams — enumerable
// offline by an attacker holding one release. Words instead come from a
// ChaCha8 stream keyed (and periodically re-keyed) by 256 bits of OS
// entropy: the keyspace is unenumerable and the stream is
// indistinguishable from the OS CSPRNG's own output, at in-process
// generation cost instead of a kernel read per block. A source is used
// by a single release at a time, so no locking is needed.
type cryptoWords struct {
	c *randv2.ChaCha8
	n int // words served under the current key
}

func (s *cryptoWords) Uint64() uint64 {
	if s.c == nil || s.n >= cryptoRekeyWords {
		s.rekey()
	}
	s.n++
	return s.c.Uint64()
}

func (s *cryptoWords) rekey() {
	var seed [32]byte
	if _, err := cryptorand.Read(seed[:]); err != nil {
		// crypto/rand does not fail on any supported platform; if it ever
		// does, releasing with degraded noise is not an option.
		panic("mm: crypto/rand unavailable: " + err.Error())
	}
	if s.c == nil {
		s.c = randv2.NewChaCha8(seed)
	} else {
		s.c.Seed(seed)
	}
	s.n = 0
}

// CryptoSource is the production noise source: the ziggurat (normal) and
// inverse-CDF (Laplace) samplers run directly on a crypto-keyed ChaCha8
// word stream, and AddNormal/AddLaplace add a whole vector of draws in
// one call. The stream position carries over between pooled releases,
// which is safe — no bit of the stream feeds more than one draw — and is
// what lets a pooled source amortize key setup across releases.
type CryptoSource struct {
	words cryptoWords
}

// NewCryptoSeededSource returns a NoiseSource backed by a
// cryptographically strong generator keyed (and periodically re-keyed)
// from the operating system's CSPRNG, so noise streams are unpredictable
// across releases and across server restarts.
func NewCryptoSeededSource() NoiseSource { return &CryptoSource{} }

// Float64 returns a uniform draw in [0,1) with 53 random bits, one word
// per draw.
func (s *CryptoSource) Float64() float64 {
	return float64(s.words.Uint64()>>11) * 0x1p-53
}

// NormFloat64 returns one standard normal draw, from one word's low half
// when it passes the ziggurat's fast test.
func (s *CryptoSource) NormFloat64() float64 {
	j := int32(s.words.Uint64())
	if x, ok := zigFast(j); ok {
		return x
	}
	return s.normalSlow(j)
}

// AddNormal adds sigma·z to every element of dst, each z an independent
// standard normal draw: two ziggurat draws per 64-bit word, one from each
// 32-bit half. A draw that fails the fast test takes its further words
// from the stream; the odd element of an odd-length dst leaves its word's
// high half unused.
func (s *CryptoSource) AddNormal(dst []float64, sigma float64) {
	for ; len(dst) >= 2; dst = dst[2:] {
		u := s.words.Uint64()
		z0, ok0 := zigFast(int32(u))
		z1, ok1 := zigFast(int32(u >> 32))
		if !ok0 {
			z0 = s.normalSlow(int32(u))
		}
		if !ok1 {
			z1 = s.normalSlow(int32(u >> 32))
		}
		dst[0] += sigma * z0
		dst[1] += sigma * z1
	}
	if len(dst) == 1 {
		dst[0] += sigma * s.NormFloat64()
	}
}

// AddLaplace adds an independent Laplace(0, b) draw to every element of
// dst, each by inverse CDF from a 53-bit uniform (one word per draw).
func (s *CryptoSource) AddLaplace(dst []float64, b float64) {
	for i := range dst {
		dst[i] += laplaceAt(s.Float64(), b)
	}
}

// cryptoPool recycles crypto sources so the server's hot path skips the
// per-release source construction and keeps each source's partially
// consumed CSPRNG block. Pooling is safe because a source holds no
// per-release state: only the word stream, whose every word is consumed
// at most once regardless of which release consumes it.
var cryptoPool = sync.Pool{New: func() any { return &CryptoSource{} }}

// AcquireCryptoSource returns a pooled production noise source. Release it
// with ReleaseCryptoSource when the release's noise has been drawn.
func AcquireCryptoSource() *CryptoSource {
	return cryptoPool.Get().(*CryptoSource)
}

// ReleaseCryptoSource returns a source to the pool. The caller must not
// use it afterwards.
func ReleaseCryptoSource(s *CryptoSource) { cryptoPool.Put(s) }
