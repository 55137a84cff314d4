package workload

import (
	"fmt"
	"math"

	"sbqa/internal/stats"
)

// Arrivals is a seeded arrival process: Next returns the delay from now
// until the process's next event, drawing every random number from rng.
// Implementations must be deterministic — the same (now, rng-state) pair
// always yields the same gap and leaves rng in the same state — so that
// simulations embedding a process replay byte-identically under one seed.
//
// Stateless processes (Poisson, Modulated) use value receivers and
// can be shared; MMPP2 carries phase state and must be one-per-stream.
type Arrivals interface {
	// Next returns the gap (simulated seconds, >= 0) from now until the
	// next arrival. A process with nothing left to emit returns +Inf.
	Next(now float64, rng *stats.RNG) float64

	// String describes the process for reports and findings tables.
	String() string
}

// Poisson is the homogeneous Poisson process: independent exponential gaps
// with the given mean rate (events / simulated second).
//
// Next performs exactly one rng.ExpFloat64 draw and returns
// ExpFloat64()/Rate, so every lab population books arrivals the same
// way. Golden tests pin this draw sequence; changing it invalidates every
// recorded finding.
type Poisson struct {
	Rate float64 // mean arrivals per simulated second
}

// Next implements Arrivals.
func (p Poisson) Next(_ float64, rng *stats.RNG) float64 {
	if p.Rate <= 0 {
		return math.Inf(1)
	}
	return rng.ExpFloat64() / p.Rate
}

// String implements Arrivals.
func (p Poisson) String() string { return fmt.Sprintf("poisson(rate=%g)", p.Rate) }

// MMPP2 is a two-state Markov-modulated Poisson process — the standard
// bursty-traffic model. The process dwells in a state for an exponential
// time (means DwellA / DwellB), emitting Poisson arrivals at that state's
// rate (RateA / RateB), then switches. With RateB >> RateA and short
// DwellB it produces the on/off burst trains flash-crowd studies use.
//
// MMPP2 is stateful (current phase and its expiry); construct one per
// stream with NewMMPP2 and do not share across streams.
type MMPP2 struct {
	rateA, rateB   float64
	dwellA, dwellB float64

	state   int     // 0 = A, 1 = B
	until   float64 // simulated time the current dwell ends
	started bool
}

// NewMMPP2 builds a two-state MMPP starting in state A. Rates are
// arrivals/second (>= 0); dwells are mean seconds per visit (> 0).
func NewMMPP2(rateA, dwellA, rateB, dwellB float64) (*MMPP2, error) {
	if rateA < 0 || rateB < 0 {
		return nil, fmt.Errorf("workload: MMPP2 rates must be >= 0, got %g/%g", rateA, rateB)
	}
	if dwellA <= 0 || dwellB <= 0 {
		return nil, fmt.Errorf("workload: MMPP2 dwells must be > 0, got %g/%g", dwellA, dwellB)
	}
	if rateA == 0 && rateB == 0 {
		return nil, fmt.Errorf("workload: MMPP2 needs at least one positive rate")
	}
	return &MMPP2{rateA: rateA, rateB: rateB, dwellA: dwellA, dwellB: dwellB}, nil
}

func (m *MMPP2) rate() float64 {
	if m.state == 0 {
		return m.rateA
	}
	return m.rateB
}

func (m *MMPP2) dwell() float64 {
	if m.state == 0 {
		return m.dwellA
	}
	return m.dwellB
}

// Next implements Arrivals. It simulates the phase process exactly: a
// candidate gap is drawn at the current state's rate, and if it would cross
// the dwell boundary the clock jumps to the boundary, the state flips, and
// the draw restarts — valid because exponential gaps are memoryless.
func (m *MMPP2) Next(now float64, rng *stats.RNG) float64 {
	if !m.started {
		m.started = true
		m.until = now + rng.ExpFloat64()*m.dwell()
	}
	t := now
	for {
		rate := m.rate()
		var gap float64
		if rate > 0 {
			gap = rng.ExpFloat64() / rate
		} else {
			gap = math.Inf(1)
		}
		if t+gap <= m.until {
			return t + gap - now
		}
		t = m.until
		m.state = 1 - m.state
		m.until = t + rng.ExpFloat64()*m.dwell()
	}
}

// String implements Arrivals.
func (m *MMPP2) String() string {
	return fmt.Sprintf("mmpp2(A=%g/%gs, B=%g/%gs)", m.rateA, m.dwellA, m.rateB, m.dwellB)
}

// Modulated scales a base process's gaps by a time-varying factor:
// Factor(now) > 1 compresses gaps (more arrivals), < 1 stretches them, and
// <= 0 silences the stream. It is how the lab superimposes flash crowds on
// any base process without re-deriving its sampler.
type Modulated struct {
	Base   Arrivals
	Factor func(t float64) float64
}

// Next implements Arrivals.
func (m Modulated) Next(now float64, rng *stats.RNG) float64 {
	gap := m.Base.Next(now, rng)
	f := m.Factor(now)
	if f <= 0 {
		return math.Inf(1)
	}
	return gap / f
}

// String implements Arrivals.
func (m Modulated) String() string { return fmt.Sprintf("modulated(%s)", m.Base) }

// FlashFactor returns a Modulated.Factor that multiplies the arrival rate
// by factor inside the window [at, at+duration) and is 1 elsewhere — the
// canonical flash-crowd shape.
func FlashFactor(at, duration, factor float64) func(t float64) float64 {
	return func(t float64) float64 {
		if t >= at && t < at+duration {
			return factor
		}
		return 1
	}
}
