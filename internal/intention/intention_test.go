package intention

import (
	"math"
	"testing"
	"testing/quick"

	"sbqa/internal/model"
)

func TestPreferenceProvider(t *testing.T) {
	p := PreferenceProvider{}
	tests := []struct {
		pref float64
		want model.Intention
	}{
		{1, 1}, {-1, -1}, {0.5, 0.5}, {3, 1}, {-3, -1},
	}
	for _, tt := range tests {
		got := p.Intention(ProviderInputs{Preference: tt.pref, Utilization: 0.9})
		if got != tt.want {
			t.Errorf("pref=%v: got %v, want %v", tt.pref, got, tt.want)
		}
	}
}

func TestLoadOnlyProvider(t *testing.T) {
	p := LoadOnlyProvider{}
	tests := []struct {
		util float64
		want model.Intention
	}{
		{0, 1}, {0.5, 0}, {1, -1}, {2, -1}, {-1, 1},
	}
	for _, tt := range tests {
		got := p.Intention(ProviderInputs{Preference: -1, Utilization: tt.util})
		if math.Abs(float64(got-tt.want)) > 1e-12 {
			t.Errorf("util=%v: got %v, want %v", tt.util, got, tt.want)
		}
	}
}

func TestAdaptiveProviderShiftsWithSatisfaction(t *testing.T) {
	p := AdaptiveProvider{}
	// A dissatisfied idle provider that hates this query must say so.
	dissatisfied := p.Intention(ProviderInputs{Preference: -1, Utilization: 0, Satisfaction: 0})
	if dissatisfied != -1 {
		t.Errorf("dissatisfied provider should express preference: %v", dissatisfied)
	}
	// The same provider fully satisfied becomes load-driven (+1 when idle).
	satisfied := p.Intention(ProviderInputs{Preference: -1, Utilization: 0, Satisfaction: 1})
	if satisfied != 1 {
		t.Errorf("satisfied provider should volunteer capacity: %v", satisfied)
	}
}

func TestPreferenceConsumer(t *testing.T) {
	c := PreferenceConsumer{}
	if got := c.Intention(ConsumerInputs{Preference: 0.7, Reputation: 0}); got != 0.7 {
		t.Errorf("got %v", got)
	}
}

func TestReputationBlendConsumer(t *testing.T) {
	in := ConsumerInputs{Preference: 1, Reputation: 0}
	// γ=1: pure preference.
	if got := (ReputationBlendConsumer{Gamma: 1}).Intention(in); got != 1 {
		t.Errorf("γ=1: %v", got)
	}
	// γ=0: pure reputation, rep 0 → -1.
	if got := (ReputationBlendConsumer{Gamma: 0}).Intention(in); got != -1 {
		t.Errorf("γ=0: %v", got)
	}
	// Unknown provider (rep 0.5) contributes 0.
	mid := ConsumerInputs{Preference: 0.4, Reputation: 0.5}
	if got := (ReputationBlendConsumer{Gamma: 0.5}).Intention(mid); math.Abs(float64(got)-0.2) > 1e-12 {
		t.Errorf("γ=.5 with neutral rep = %v, want 0.2", got)
	}
}

func TestResponseTimeConsumer(t *testing.T) {
	c := ResponseTimeConsumer{}
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
		got := c.Intention(ConsumerInputs{ExpectedDelay: tt.delay, DelayTarget: tt.target})
		if math.Abs(float64(got)-tt.want) > 1e-12 {
			t.Errorf("delay=%v target=%v: got %v, want %v", tt.delay, tt.target, got, tt.want)
		}
	}
}

func TestResponseTimeConsumerMonotone(t *testing.T) {
	c := ResponseTimeConsumer{}
	f := func(a, b float64) bool {
		x, y := math.Abs(a), math.Abs(b)
		if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
			return true
		}
		if x > y {
			x, y = y, x
		}
		fast := c.Intention(ConsumerInputs{ExpectedDelay: x, DelayTarget: 7})
		slow := c.Intention(ConsumerInputs{ExpectedDelay: y, DelayTarget: 7})
		return fast >= slow
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAllPoliciesStayInRange(t *testing.T) {
	provPolicies := []ProviderPolicy{
		PreferenceProvider{}, LoadOnlyProvider{}, AdaptiveProvider{},
	}
	consPolicies := []ConsumerPolicy{
		PreferenceConsumer{}, ReputationBlendConsumer{Gamma: 0.6},
		ResponseTimeConsumer{},
	}
	f := func(a, b, c, d float64) bool {
		pin := ProviderInputs{Preference: a, Utilization: b, Satisfaction: c}
		cin := ConsumerInputs{Preference: a, Reputation: b, ExpectedDelay: math.Abs(c), DelayTarget: math.Abs(d)}
		for _, p := range provPolicies {
			if got := p.Intention(pin); !(got >= -1 && got <= 1) {
				return false
			}
		}
		for _, p := range consPolicies {
			if got := p.Intention(cin); !(got >= -1 && got <= 1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPolicyStrings(t *testing.T) {
	for _, s := range []string{
		PreferenceProvider{}.String(), LoadOnlyProvider{}.String(),
		AdaptiveProvider{}.String(),
		PreferenceConsumer{}.String(), ReputationBlendConsumer{Gamma: 0.5}.String(),
		ResponseTimeConsumer{}.String(),
	} {
		if s == "" {
			t.Error("policy with empty String()")
		}
	}
}
