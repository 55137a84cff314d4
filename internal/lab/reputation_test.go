package lab

import (
	"math"
	"testing"
	"testing/quick"
)

func TestInitialReputation(t *testing.T) {
	b := newBook(0.3)
	if got := b.reputation(42); got != initialReputation {
		t.Errorf("unknown provider = %v, want %v", got, initialReputation)
	}
	if len(b.scores) != 0 {
		t.Errorf("known = %d", len(b.scores))
	}
}

func TestObserveEWMA(t *testing.T) {
	b := newBook(0.5)
	b.observe(1, 1)
	if got := b.reputation(1); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("after one good obs = %v, want 0.75", got)
	}
	b.observe(1, 0)
	if got := b.reputation(1); math.Abs(got-0.375) > 1e-12 {
		t.Errorf("after one bad obs = %v, want 0.375", got)
	}
	if len(b.scores) != 1 {
		t.Errorf("known = %d", len(b.scores))
	}
}

func TestObserveClamps(t *testing.T) {
	b := newBook(1) // reputation = last observation
	b.observe(1, 42)
	if got := b.reputation(1); got != 1 {
		t.Errorf("clamped high = %v", got)
	}
	b.observe(1, -5)
	if got := b.reputation(1); got != 0 {
		t.Errorf("clamped low = %v", got)
	}
}

func TestReputationStaysInUnitInterval(t *testing.T) {
	f := func(obs []float64) bool {
		b := newBook(0.3)
		for _, o := range obs {
			if math.IsNaN(o) {
				continue
			}
			b.observe(7, o)
			r := b.reputation(7)
			if r < 0 || r > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConvergesToSteadyQuality(t *testing.T) {
	b := newBook(0.2)
	for i := 0; i < 200; i++ {
		b.observe(3, 0.9)
	}
	if got := b.reputation(3); math.Abs(got-0.9) > 1e-6 {
		t.Errorf("steady-state reputation = %v, want ~0.9", got)
	}
}

func TestQualityFromLatency(t *testing.T) {
	if got := quality(0, 10); got != 1 {
		t.Errorf("zero latency = %v, want 1", got)
	}
	if got := quality(10, 10); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("latency at target = %v, want 0.5", got)
	}
	if got := quality(90, 10); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("9x target = %v, want 0.1", got)
	}
	if got := quality(5, 0); got != 1 {
		t.Errorf("non-positive target = %v, want 1", got)
	}
	if got := quality(-3, 10); got != 1 {
		t.Errorf("negative latency treated as 0 → %v, want 1", got)
	}
}

func TestQualityFromLatencyMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		x, y := math.Abs(a), math.Abs(b)
		if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
			return true
		}
		if x > y {
			x, y = y, x
		}
		return quality(x, 5) >= quality(y, 5)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
