package main

import (
	"math"
	"sort"
)

// summary is one metric's sample distribution as every output file
// records it: sample count, median and quartiles, and the tail — the
// highest percentile with at least tailBeyond samples above it.
type summary struct {
	N       int     `json:"n"`
	Median  float64 `json:"median"`
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
	TailPct float64 `json:"tail_pct,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
}

// tailBeyond is how many samples must lie beyond a reported tail
// percentile, so the tail is never a single outlier.
const tailBeyond = 10

// tailPercentile returns the highest percentile, at 0.1 resolution,
// that leaves at least tailBeyond of n samples strictly above its
// nearest-rank position; ok is false when n is too small for any.
func tailPercentile(n int) (pct float64, ok bool) {
	if n <= tailBeyond {
		return 0, false
	}
	pct = math.Floor(1000*(1-float64(tailBeyond)/float64(n))) / 10
	// Guard float rounding: step down until the rule holds exactly.
	for pct > 0 && n-nearestRank(pct, n) < tailBeyond {
		pct = math.Round(pct*10-1) / 10
	}
	return pct, pct > 0
}

// nearestRank is the 1-based nearest-rank position of percentile pct
// among n sorted samples.
func nearestRank(pct float64, n int) int {
	r := int(math.Ceil(pct / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// quartiles returns the first, second and third quartiles with the
// same "exclusive" interpolation as Python's statistics.quantiles(n=4),
// which is how the benchmark's spread is judged.
func quartiles(sorted []float64) (q1, q2, q3 float64) {
	n := len(sorted)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return sorted[0], sorted[0], sorted[0]
	}
	q := func(i int) float64 {
		j := i * (n + 1)
		k, rem := j/4, float64(j%4)/4
		switch {
		case k < 1:
			return sorted[0]
		case k >= n:
			return sorted[n-1]
		}
		return sorted[k-1] + rem*(sorted[k]-sorted[k-1])
	}
	return q(1), q(2), q(3)
}

// summarize sorts a copy of xs and summarizes it.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	sum := summary{N: len(s)}
	sum.Q1, sum.Median, sum.Q3 = quartiles(s)
	if pct, ok := tailPercentile(len(s)); ok {
		sum.TailPct = pct
		sum.Tail = s[nearestRank(pct, len(s))-1]
	}
	return sum
}
