package main

import (
	"math"
	"sort"
)

// sortedCopy returns v sorted ascending without touching v.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of v (the mean of the two middle values
// for an even count), or NaN for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sortedCopy(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of v:
// the smallest sample with at least p% of the samples at or below it. No
// interpolation, so the value is always one that was measured.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sortedCopy(v)
	return s[percentileRank(len(s), p)-1]
}

// percentileRank is the 1-based nearest rank of the p-th percentile among
// n samples.
func percentileRank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// samplesBeyond is how many of n samples lie strictly above the p-th
// percentile's rank — the tail a percentile rests on. A percentile is
// reported only when this is at least minTail.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - percentileRank(n, p)
}

// minTail is the least number of samples that must lie beyond a reported
// percentile.
const minTail = 10

// minSamplesFor is the smallest sample count that leaves minTail samples
// beyond the p-th percentile.
func minSamplesFor(p float64) int {
	n := 1
	for samplesBeyond(n, p) < minTail {
		n++
	}
	return n
}

// trimmedMean averages the middle 80% of v. The release-stage spans the
// server echoes are whole microseconds, so their median is quantized; the
// trimmed mean keeps full resolution while ignoring the GC-pause tail.
func trimmedMean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sortedCopy(v)
	cut := len(s) / 10
	s = s[cut : len(s)-cut]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// interval is a closed-open time range on one clock, in nanoseconds.
type interval struct{ lo, hi int64 }

// unionWithin returns the total length of the union of ivs clipped to
// [lo, hi). It sorts ivs in place.
func unionWithin(ivs []interval, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total int64
	cur := interval{lo: math.MinInt64, hi: math.MinInt64}
	flush := func() {
		a, b := max(cur.lo, lo), min(cur.hi, hi)
		if b > a {
			total += b - a
		}
	}
	for _, iv := range ivs {
		if iv.hi <= iv.lo {
			continue
		}
		if iv.lo > cur.hi {
			flush()
			cur = iv
			continue
		}
		cur.hi = max(cur.hi, iv.hi)
	}
	flush()
	return total
}
