package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks. xs need not be sorted; an empty
// slice yields NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPercentile is the sampling rule for a timing's tail: the highest
// of p99, p90, p75 and p50 that has at least ten samples beyond it, or
// 0 when n is below 20 and not even the median qualifies.
func tailPercentile(n int) float64 {
	for _, p := range []int{99, 90, 75, 50} {
		if n*(100-p) >= 10*100 {
			return float64(p)
		}
	}
	return 0
}

// quartileSpread is the distance between the first and third quartile
// of xs as a share of their median, with the quartiles computed as
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method) does.
// It needs at least two values.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	const n = 4
	ld := len(s)
	m := ld + 1
	q := make([]float64, 0, n-1)
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q = append(q, (s[j-1]*float64(n-delta)+s[j]*float64(delta))/n)
	}
	return (q[2] - q[0]) / median(xs)
}

// stratified summarises op times drawn from several datasets whose
// typical cost differs; group[i] names the dataset of ms[i]. p50 is the
// mean over the datasets of each one's median op time (mid), so a seed
// that makes one dataset dearer moves it in proportion instead of
// deciding which dataset a pooled median lands on. The tail is p50 plus
// the given percentile, over all ops pooled, of how far each op ran past
// its own dataset's median; it rests on every sample, not on one
// dataset's.
func stratified(ms []float64, group []string, pct float64) (p50, tail float64, mid map[string]float64) {
	by := map[string][]float64{}
	for i, x := range ms {
		by[group[i]] = append(by[group[i]], x)
	}
	if len(by) == 0 {
		return math.NaN(), math.NaN(), nil
	}
	mid = make(map[string]float64, len(by))
	for g, xs := range by {
		mid[g] = median(xs)
		p50 += mid[g]
	}
	p50 /= float64(len(by))
	excess := make([]float64, len(ms))
	for i, x := range ms {
		excess[i] = x - mid[group[i]]
	}
	return p50, p50 + percentile(excess, pct), mid
}
