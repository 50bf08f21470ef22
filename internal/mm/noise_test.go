package mm

import (
	"math"
	"math/rand"
	randv2 "math/rand/v2"
	"sort"
	"testing"

	"adaptivemm/internal/linalg"
)

// boundarySource always returns the worst-case uniform draw 0, the value
// that used to drive the inverse-CDF Laplace sampler to −Inf.
type boundarySource struct{}

func (boundarySource) Float64() float64     { return 0 }
func (boundarySource) NormFloat64() float64 { return 0 }

func TestLaplaceBoundaryDrawIsFinite(t *testing.T) {
	v := laplace(boundarySource{}, 1.0)
	if math.IsInf(v, 0) || math.IsNaN(v) {
		t.Fatalf("laplace at boundary draw = %g, want finite", v)
	}
	// The clamped sample must sit at the extreme negative tail the
	// generator can legitimately reach, not at some arbitrary value.
	want := math.Log(minLaplaceLogArg)
	if v != want {
		t.Fatalf("laplace at boundary draw = %g, want %g", v, want)
	}
}

// TestEstimateLaplaceBoundaryDraw runs a full Laplace release where every
// uniform draw hits the boundary: before the guard, every strategy answer
// was −Inf and least-squares inference returned a corrupted estimate.
func TestEstimateLaplaceBoundaryDraw(t *testing.T) {
	m, err := NewMechanism(linalg.Identity(4))
	if err != nil {
		t.Fatal(err)
	}
	xhat, err := m.EstimateLaplace([]float64{1, 2, 3, 4}, 1.0, boundarySource{})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range xhat {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("estimate[%d] = %g after boundary draws, want finite", i, v)
		}
	}
}

// TestCryptoSeededSourcesDiffer checks that independently created
// production sources do not share a noise stream — the property the old
// counter-based seeding violated across server restarts.
func TestCryptoSeededSourcesDiffer(t *testing.T) {
	a, b := NewCryptoSeededSource(), NewCryptoSeededSource()
	for i := 0; i < 8; i++ {
		if a.NormFloat64() != b.NormFloat64() {
			return
		}
	}
	t.Fatal("two crypto-seeded sources produced identical noise streams")
}

// TestCryptoWordsRekeys drives a word stream past its re-key budget and
// checks the counter wraps: the generator must take fresh OS entropy at
// the boundary instead of serving unbounded output from one key.
func TestCryptoWordsRekeys(t *testing.T) {
	var s cryptoWords
	s.Uint64()
	if s.c == nil || s.left != cryptoRekeyWords-1 {
		t.Fatalf("after first draw: generator %v, budget left %d", s.c, s.left)
	}
	s.left = 0 // fast-forward to the boundary
	s.Uint64()
	if s.left != cryptoRekeyWords-1 {
		t.Fatalf("budget left after re-key draw = %d, want %d", s.left, cryptoRekeyWords-1)
	}
}

// rekeySource returns a CryptoSource under a fixed key with left words
// of budget before it re-keys, from a fixed key stream.
func rekeySource(left int) *CryptoSource {
	var seed, keys [32]byte
	copy(seed[:], "adaptivemm re-key boundary key!!")
	copy(keys[:], "adaptivemm re-key key material!!")
	return &CryptoSource{words: cryptoWords{c: randv2.NewChaCha8(seed), left: left, keys: randv2.NewChaCha8(keys)}}
}

// TestCryptoRunsRekeyAtExactWord starts one AddNormal (and one
// AddLaplace) call a few words before the re-key boundary: the run-based
// kernels must add exactly what a kernel taking every word through the
// budget-checked cryptoWords.Uint64 adds and leave the same budget, so
// the key changes after exactly cryptoRekeyWords words; a budget left
// above the starting one shows the call re-keyed, and once, as it takes
// far fewer than cryptoRekeyWords words. Over 1..64 words before the
// boundary some draws near it take the slow path, whose further words
// cross it.
func TestCryptoRunsRekeyAtExactWord(t *testing.T) {
	perWordNormal := func(s *CryptoSource, dst []float64, sigma float64) {
		for ; len(dst) >= 2; dst = dst[2:] {
			s.addNormalPair(dst, s.words.Uint64(), sigma)
		}
		if len(dst) == 1 {
			dst[0] += sigma * s.NormFloat64()
		}
	}
	perWordLaplace := func(s *CryptoSource, dst []float64, b float64) {
		for i := range dst {
			dst[i] += laplaceAt(s.Float64(), b)
		}
	}
	for left := 1; left <= 64; left++ {
		for _, n := range []int{2*left + 1, 2*left + 40} {
			for _, k := range []struct {
				name      string
				run, ref  func(s *CryptoSource, dst []float64, scale float64)
				wordsUsed int
			}{
				{"AddNormal", (*CryptoSource).AddNormal, perWordNormal, n / 2},
				{"AddLaplace", (*CryptoSource).AddLaplace, perWordLaplace, n},
			} {
				got, want := make([]float64, n), make([]float64, n)
				s := rekeySource(left)
				k.run(s, got, 1.5)
				ref := rekeySource(left)
				k.ref(ref, want, 1.5)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s, %d words before the boundary, %d draws: [%d] = %v, per-word kernel %v", k.name, left, n, i, got[i], want[i])
					}
				}
				if s.words.left != ref.words.left {
					t.Fatalf("%s, %d words before the boundary, %d draws: %d words left, per-word kernel %d", k.name, left, n, s.words.left, ref.words.left)
				}
				if most := cryptoRekeyWords - (k.wordsUsed - left); s.words.left <= left || s.words.left > most {
					t.Fatalf("%s, %d words before the boundary, %d draws: %d words left after the call, want one re-key: in (%d, %d]",
						k.name, left, n, s.words.left, left, most)
				}
			}
		}
	}
}

// fixedKeySource returns a CryptoSource whose word stream is ChaCha8 under
// a fixed key that never re-keys (its budget of words starts far above
// the re-key budget), so a statistical test over it draws the same values on
// every run: the test's significance level is a one-time risk, not a
// per-run flake rate.
func fixedKeySource() *CryptoSource {
	var seed [32]byte
	copy(seed[:], "adaptivemm noise conformance key")
	return &CryptoSource{words: cryptoWords{c: randv2.NewChaCha8(seed), left: math.MaxInt}}
}

// ksStatistic returns the one-sample Kolmogorov–Smirnov distance between
// the empirical distribution of xs (sorted in place) and the CDF cdf.
func ksStatistic(xs []float64, cdf func(float64) float64) float64 {
	sort.Float64s(xs)
	n := float64(len(xs))
	var d float64
	for i, x := range xs {
		f := cdf(x)
		d = math.Max(d, math.Max(float64(i+1)/n-f, f-float64(i)/n))
	}
	return d
}

// TestCryptoNoiseDistribution checks the bulk kernels draw from the exact
// normal and Laplace distributions: a one-sample KS test of 2,000,000
// AddNormal and AddLaplace draws at α = 1e-3, and the mass of the
// ziggurat's base-strip tail, which only the slow path can sample. A
// slow path that redraws at every failed fast test, instead of finishing
// the wedge or tail test on the same draw, has variance ≈ 0.985 and
// fails all three; 200,000 draws were too few for KS to catch it.
func TestCryptoNoiseDistribution(t *testing.T) {
	const n = 2000000
	dKS := math.Sqrt(-math.Log(1e-3/2)/2) / math.Sqrt(n) // ≈ 1.95/√n
	src := fixedKeySource()

	normal := make([]float64, n)
	src.AddNormal(normal, 1)
	tail := 0
	for _, z := range normal {
		if math.Abs(z) > zigR {
			tail++
		}
	}
	p := math.Erfc(zigR / math.Sqrt2) // P(|z| > zigR) ≈ 5.76e-4
	mean, sd := n*p, math.Sqrt(n*p*(1-p))
	t.Logf("AddNormal: %d of %d draws beyond ±%g, want %.0f ± %.0f", tail, n, zigR, mean, 4*sd)
	if math.Abs(float64(tail)-mean) > 4*sd {
		t.Error("AddNormal: base-strip tail mass outside its binomial bounds")
	}
	d := ksStatistic(normal, func(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) })
	t.Logf("AddNormal: KS distance to Φ %.5f, critical %.5f", d, dKS)
	if d > dKS {
		t.Error("AddNormal: KS test rejects the normal distribution")
	}

	const b = 2.5
	lap := make([]float64, n)
	src.AddLaplace(lap, b)
	for _, v := range lap {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("AddLaplace produced %g", v)
		}
	}
	laplaceCDF := func(x float64) float64 {
		if x < 0 {
			return 0.5 * math.Exp(x/b)
		}
		return 1 - 0.5*math.Exp(-x/b)
	}
	d = ksStatistic(lap, laplaceCDF)
	t.Logf("AddLaplace: KS distance to Laplace(0, %g) %.5f, critical %.5f", b, d, dKS)
	if d > dKS {
		t.Error("AddLaplace: KS test rejects the Laplace distribution")
	}
}

// wordSource serves one chosen 32-bit word to math/rand and zeros after
// it, counting the extra draws: Int63 returns w<<31, so Rand.Uint32 is w.
type wordSource struct {
	w      uint32
	served int
}

func (s *wordSource) Int63() int64 {
	s.served++
	if s.served > 1 {
		return 0
	}
	return int64(s.w) << 31
}

func (s *wordSource) Seed(int64) {}

// TestZigguratFastPathMatchesMathRand pins the ziggurat tables and fast
// test to math/rand's: on every word tried, math/rand's NormFloat64
// returns after one draw exactly when zigFast accepts it, and then both
// give the same float64. The words tried are the extremes, a million
// seeded draws, and every word within 512 of ±zigK[i] for each strip i,
// which puts words of strip i itself on both sides of its bound.
func TestZigguratFastPathMatchesMathRand(t *testing.T) {
	src := &wordSource{}
	ref := rand.New(src)
	check := func(w uint32) {
		src.w, src.served = w, 0
		want := ref.NormFloat64()
		got, ok := zigFast(int32(w))
		if fast := src.served == 1; ok != fast {
			t.Fatalf("word %#x: zigFast accepts %v, math/rand fast path %v", w, ok, fast)
		}
		if ok && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("word %#x: zigFast %v, math/rand %v", w, got, want)
		}
	}
	for _, w := range []uint32{0, 1, 0x7F, 0x80, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF} {
		check(w)
	}
	for _, k := range zigK {
		for d := int32(-512); d <= 512; d++ {
			check(uint32(int32(k) + d))
			check(uint32(-int32(k) + d))
		}
	}
	r := rand.New(rand.NewSource(23))
	for range 1 << 20 {
		check(r.Uint32())
	}
}

// TestCryptoNoiseZeroAlloc pins the bulk kernels allocation-free, like
// the release paths that call them, re-keys included: each call starts a
// few words before the re-key boundary. Under the race detector
// crypto/rand's read moves the key buffer to the heap, so there the
// calls stay clear of the boundary.
func TestCryptoNoiseZeroAlloc(t *testing.T) {
	s := AcquireCryptoSource()
	defer ReleaseCryptoSource(s)
	dst := make([]float64, 1001)
	s.AddNormal(dst, 2) // keys the stream
	for _, k := range []struct {
		name string
		add  func([]float64, float64)
	}{{"AddNormal", s.AddNormal}, {"AddLaplace", s.AddLaplace}} {
		if allocs := testing.AllocsPerRun(50, func() {
			if !raceEnabled {
				s.words.left = 3
			}
			k.add(dst, 2)
		}); allocs != 0 {
			t.Fatalf("%s allocates %v per call, want 0", k.name, allocs)
		}
	}
}

// BenchmarkCryptoAddNormal adds one normal draw to each of the 14,415
// strategy answers of census-rangemarg's hierarchical strategy
// (rangemarginals:2:8x16x16), the noise stage of one release.
func BenchmarkCryptoAddNormal(b *testing.B) {
	const rows = 14415
	s := AcquireCryptoSource()
	defer ReleaseCryptoSource(s)
	dst := make([]float64, rows)
	for b.Loop() {
		s.AddNormal(dst, 1)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/draw")
}

// TestCryptoSourcePool checks acquire/release recycling keeps sources
// usable and distinct in output across reuse.
func TestCryptoSourcePool(t *testing.T) {
	s := AcquireCryptoSource()
	a := s.NormFloat64()
	ReleaseCryptoSource(s)
	s2 := AcquireCryptoSource()
	defer ReleaseCryptoSource(s2)
	b := s2.NormFloat64()
	if a == b {
		t.Fatal("pooled source repeated a draw after recycling")
	}
	buf := make([]float64, 64)
	s2.AddNormal(buf, 1)
	for i, v := range buf {
		if v == 0 && i > 0 && buf[i-1] == 0 {
			t.Fatal("pooled source produced a dead stream")
		}
	}
}
