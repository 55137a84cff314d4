package stats

import (
	"math"
	"sort"
)

// Percentile returns the p-th percentile (p in [0, 100]) of sorted values,
// interpolating linearly between closest ranks; 0 for no values.
func Percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Welford is a constant-memory running mean.
type Welford struct {
	n    int64
	mean float64
}

// Add records one observation.
func (w *Welford) Add(v float64) {
	w.n++
	w.mean += (v - w.mean) / float64(w.n)
}

// Mean returns the running mean.
func (w *Welford) Mean() float64 { return w.mean }

// Gini returns the Gini coefficient of the values: 0 = perfectly equal,
// values near 1 = one participant holds everything. Values must be
// non-negative; the result of an empty or all-zero input is 0.
//
// The experiments use Gini over participant satisfactions and utilizations
// as the fairness measure.
func Gini(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	// Normalize by the maximum to avoid overflow on extreme inputs; the
	// coefficient is scale-invariant so this does not change the result.
	scale := sorted[n-1]
	if scale <= 0 {
		return 0
	}
	var cum, weighted float64
	for i, v := range sorted {
		if v < 0 {
			v = 0
		}
		v /= scale
		cum += v
		weighted += v * float64(i+1)
	}
	if cum == 0 {
		return 0
	}
	nf := float64(n)
	return (2*weighted - (nf+1)*cum) / (nf * cum)
}

// MeanOf returns the arithmetic mean of the values (0 for empty input).
func MeanOf(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// StdDevOf returns the population standard deviation of the values.
func StdDevOf(values []float64) float64 {
	n := float64(len(values))
	if n < 2 {
		return 0
	}
	m := MeanOf(values)
	var acc float64
	for _, v := range values {
		d := v - m
		acc += d * d
	}
	return math.Sqrt(acc / n)
}
