package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates scalar observations and reports count, mean, min/max,
// and exact percentiles. It keeps all samples (experiments here are
// bounded to a few hundred thousand observations), which keeps percentiles
// exact and the implementation dependency-free.
type Summary struct {
	samples []float64
	sum     float64
	min     float64
	max     float64
	sorted  bool
}

// NewSummary returns an empty summary.
func NewSummary() *Summary {
	return &Summary{min: math.Inf(1), max: math.Inf(-1)}
}

// Add records one observation.
func (s *Summary) Add(v float64) {
	s.samples = append(s.samples, v)
	s.sum += v
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	s.sorted = false
}

// Count returns the number of observations.
func (s *Summary) Count() int { return len(s.samples) }

// Mean returns the arithmetic mean, or 0 for an empty summary.
func (s *Summary) Mean() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	return s.sum / float64(len(s.samples))
}

// Min returns the smallest observation, or 0 if empty.
func (s *Summary) Min() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation, or 0 if empty.
func (s *Summary) Max() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	return s.max
}

// Percentile returns the p-th percentile (p in [0, 100]) using linear
// interpolation between closest ranks; 0 for an empty summary.
func (s *Summary) Percentile(p float64) float64 {
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.samples)
		s.sorted = true
	}
	if p <= 0 {
		return s.samples[0]
	}
	if p >= 100 {
		return s.samples[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.samples[lo]
	}
	frac := rank - float64(lo)
	return s.samples[lo]*(1-frac) + s.samples[hi]*frac
}

// String renders a one-line digest for logs.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g p50=%.4g p95=%.4g p99=%.4g max=%.4g",
		s.Count(), s.Mean(), s.Percentile(50), s.Percentile(95), s.Percentile(99), s.Max())
}

// Welford is a constant-memory running mean for hot paths that cannot
// afford Summary's sample retention.
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
