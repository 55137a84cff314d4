package stats

import "math"

// Dist is a sampleable distribution over float64.
type Dist interface {
	// Sample draws one value using the supplied generator.
	Sample(r *RNG) float64
	// Mean returns the distribution's expected value.
	Mean() float64
}

// Uniform is the continuous uniform distribution on [Lo, Hi).
type Uniform struct{ Lo, Hi float64 }

// Sample implements Dist.
func (u Uniform) Sample(r *RNG) float64 { return r.Range(u.Lo, u.Hi) }

// Mean implements Dist.
func (u Uniform) Mean() float64 { return (u.Lo + u.Hi) / 2 }

// Exponential is the exponential distribution with the given Rate (λ);
// its mean is 1/λ. It models Poisson inter-arrival times and memoryless
// service demands.
type Exponential struct{ Rate float64 }

// Sample implements Dist.
func (e Exponential) Sample(r *RNG) float64 { return r.ExpFloat64() / e.Rate }

// Mean implements Dist.
func (e Exponential) Mean() float64 { return 1 / e.Rate }

// Pareto is the Pareto distribution with scale Xm > 0 and shape Alpha > 0;
// heavy-tailed service demands use Alpha in (1, 2].
type Pareto struct{ Xm, Alpha float64 }

// Sample implements Dist.
func (p Pareto) Sample(r *RNG) float64 {
	u := 1 - r.Float64() // in (0, 1]
	return p.Xm / math.Pow(u, 1/p.Alpha)
}

// Mean implements Dist; infinite for Alpha <= 1.
func (p Pareto) Mean() float64 {
	if p.Alpha <= 1 {
		return math.Inf(1)
	}
	return p.Alpha * p.Xm / (p.Alpha - 1)
}
