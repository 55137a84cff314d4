package lab

import (
	"math"
	"testing"
	"testing/quick"

	"sbqa/internal/model"
)

func TestPreferenceProvider(t *testing.T) {
	p := preferenceProvider
	tests := []struct {
		pref float64
		want model.Intention
	}{
		{1, 1}, {-1, -1}, {0.5, 0.5}, {3, 1}, {-3, -1},
	}
	for _, tt := range tests {
		got := p(providerInputs{preference: tt.pref, utilization: 0.9})
		if got != tt.want {
			t.Errorf("pref=%v: got %v, want %v", tt.pref, got, tt.want)
		}
	}
}

func TestLoadOnlyProvider(t *testing.T) {
	p := loadOnlyProvider
	tests := []struct {
		util float64
		want model.Intention
	}{
		{0, 1}, {0.5, 0}, {1, -1}, {2, -1}, {-1, 1},
	}
	for _, tt := range tests {
		got := p(providerInputs{preference: -1, utilization: tt.util})
		if math.Abs(float64(got-tt.want)) > 1e-12 {
			t.Errorf("util=%v: got %v, want %v", tt.util, got, tt.want)
		}
	}
}

func TestAdaptiveProviderShiftsWithSatisfaction(t *testing.T) {
	p := adaptiveProvider
	// A dissatisfied idle provider that hates this query must say so.
	dissatisfied := p(providerInputs{preference: -1, utilization: 0, satisfaction: 0})
	if dissatisfied != -1 {
		t.Errorf("dissatisfied provider should express preference: %v", dissatisfied)
	}
	// The same provider fully satisfied becomes load-driven (+1 when idle).
	satisfied := p(providerInputs{preference: -1, utilization: 0, satisfaction: 1})
	if satisfied != 1 {
		t.Errorf("satisfied provider should volunteer capacity: %v", satisfied)
	}
}

func TestPreferenceConsumer(t *testing.T) {
	c := preferenceConsumer
	if got := c(consumerInputs{preference: 0.7, reputation: 0}); got != 0.7 {
		t.Errorf("got %v", got)
	}
}

func TestReputationBlendConsumer(t *testing.T) {
	in := consumerInputs{preference: 1, reputation: 0}
	// γ=1: pure preference.
	if got := reputationBlend(1)(in); got != 1 {
		t.Errorf("γ=1: %v", got)
	}
	// γ=0: pure reputation, rep 0 → -1.
	if got := reputationBlend(0)(in); got != -1 {
		t.Errorf("γ=0: %v", got)
	}
	// Unknown provider (rep 0.5) contributes 0.
	mid := consumerInputs{preference: 0.4, reputation: 0.5}
	if got := reputationBlend(0.5)(mid); math.Abs(float64(got)-0.2) > 1e-12 {
		t.Errorf("γ=.5 with neutral rep = %v, want 0.2", got)
	}
}

func TestResponseTimeConsumer(t *testing.T) {
	c := responseTimeConsumer
	tests := []struct {
		delay, target float64
		want          float64
	}{
		{0, 10, 1},
		{10, 10, 0},
		{30, 10, -0.5},
		{5, 0, -2.0 / 3}, // target repaired to 1: (1-5)/(1+5)
		{-4, 10, 1},      // negative delay treated as 0
	}
	for _, tt := range tests {
		got := c(consumerInputs{expectedDelay: tt.delay, delayTarget: tt.target})
		if math.Abs(float64(got)-tt.want) > 1e-12 {
			t.Errorf("delay=%v target=%v: got %v, want %v", tt.delay, tt.target, got, tt.want)
		}
	}
}

func TestResponseTimeConsumerMonotone(t *testing.T) {
	c := responseTimeConsumer
	f := func(a, b float64) bool {
		x, y := math.Abs(a), math.Abs(b)
		if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
			return true
		}
		if x > y {
			x, y = y, x
		}
		fast := c(consumerInputs{expectedDelay: x, delayTarget: 7})
		slow := c(consumerInputs{expectedDelay: y, delayTarget: 7})
		return fast >= slow
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAllPoliciesStayInRange(t *testing.T) {
	provPolicies := []providerPolicy{
		preferenceProvider, loadOnlyProvider, adaptiveProvider,
	}
	consPolicies := []consumerPolicy{
		preferenceConsumer, reputationBlend(0.6),
		responseTimeConsumer,
	}
	f := func(a, b, c, d float64) bool {
		pin := providerInputs{preference: a, utilization: b, satisfaction: c}
		cin := consumerInputs{preference: a, reputation: b, expectedDelay: math.Abs(c), delayTarget: math.Abs(d)}
		for _, p := range provPolicies {
			if got := p(pin); !(got >= -1 && got <= 1) {
				return false
			}
		}
		for _, p := range consPolicies {
			if got := p(cin); !(got >= -1 && got <= 1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
