// Package intention implements the participant-side intention computation of
// the SbQA framework. The demo paper delegates the exact functions to the
// authors' SQLB paper; this package reconstructs them from the demo's prose:
//
//	"[SQLB] affords consumers the flexibility to trade their preferences
//	 for the providers' reputation and providers the flexibility to trade
//	 their preferences for their utilization."
//
// A policy maps the participant's private state (static preferences, load,
// reputation observations, satisfaction) to an intention in [-1, 1]. The
// mediation asks the consumer for CI_q[p] for each candidate provider p, and
// each candidate provider for PI_q[p].
//
// Scenario 5 of the demo swaps policies at run time (consumers become
// response-time seekers, providers become load-only) to show that SbQA
// adapts to whatever the participants care about; that is why policies are
// small value types rather than hard-wired formulas.
package intention

import (
	"fmt"

	"sbqa/internal/model"
)

// ProviderInputs carries everything a provider policy may consult when
// forming its intention to perform a query.
type ProviderInputs struct {
	// Preference is the provider's static preference for the query's
	// consumer/class, in [-1, 1] (in BOINC: how much the volunteer likes
	// the project).
	Preference float64

	// Utilization is the provider's current utilization in [0, 1].
	Utilization float64

	// Satisfaction is the provider's long-run δs(p) in [0, 1].
	Satisfaction float64
}

// ProviderPolicy computes a provider's intention PI_q[p].
type ProviderPolicy interface {
	Intention(in ProviderInputs) model.Intention
	String() string
}

// ConsumerInputs carries everything a consumer policy may consult when
// forming its intention to allocate a query to one candidate provider.
type ConsumerInputs struct {
	// Preference is the consumer's static preference for the provider,
	// in [-1, 1].
	Preference float64

	// Reputation is the consumer's current reputation estimate for the
	// provider, in [0, 1] (0.5 = unknown).
	Reputation float64

	// ExpectedDelay is the estimated response time the provider would
	// deliver for this query (pending work + service time), in simulated
	// seconds.
	ExpectedDelay float64

	// DelayTarget is the response time the consumer considers "good"; it
	// normalizes ExpectedDelay for response-time-seeking policies.
	DelayTarget float64
}

// ConsumerPolicy computes a consumer's intention CI_q[p].
type ConsumerPolicy interface {
	Intention(in ConsumerInputs) model.Intention
	String() string
}

// ---------------------------------------------------------------------------
// Provider policies
// ---------------------------------------------------------------------------

// PreferenceProvider expresses intentions equal to the provider's static
// preferences, ignoring load: the "selfish specialist" profile.
type PreferenceProvider struct{}

// Intention implements ProviderPolicy.
func (PreferenceProvider) Intention(in ProviderInputs) model.Intention {
	return model.Intention(in.Preference).Clamp()
}

func (PreferenceProvider) String() string { return "provider:preference" }

// LoadOnlyProvider expresses intentions from utilization alone: idle
// providers want queries (+1), saturated providers refuse them (-1).
// Scenario 5 gives every volunteer this profile ("volunteers be interested
// in their load").
type LoadOnlyProvider struct{}

// Intention implements ProviderPolicy.
func (LoadOnlyProvider) Intention(in ProviderInputs) model.Intention {
	return model.Intention(1 - 2*clamp01(in.Utilization)).Clamp()
}

func (LoadOnlyProvider) String() string { return "provider:load-only" }

// AdaptiveProvider is the SQLB-style self-adjusting profile: the weight
// given to preferences grows as the provider becomes dissatisfied
// (β = 1 − δs(p)). A satisfied provider behaves altruistically and helps
// balance load; a starved or mistreated one insists on the queries it
// actually wants — which is exactly the signal the mediator's adaptive ω
// then amplifies.
type AdaptiveProvider struct{}

// Intention implements ProviderPolicy.
func (AdaptiveProvider) Intention(in ProviderInputs) model.Intention {
	beta := 1 - clamp01(in.Satisfaction)
	v := beta*clampPref(in.Preference) + (1-beta)*(1-2*clamp01(in.Utilization))
	return model.Intention(v).Clamp()
}

func (AdaptiveProvider) String() string { return "provider:adaptive" }

// ---------------------------------------------------------------------------
// Consumer policies
// ---------------------------------------------------------------------------

// PreferenceConsumer expresses intentions equal to the consumer's static
// preferences for providers.
type PreferenceConsumer struct{}

// Intention implements ConsumerPolicy.
func (PreferenceConsumer) Intention(in ConsumerInputs) model.Intention {
	return model.Intention(in.Preference).Clamp()
}

func (PreferenceConsumer) String() string { return "consumer:preference" }

// ReputationBlendConsumer trades preference for reputation with a fixed
// weight γ:
//
//	CI = γ·pref + (1−γ)·(2·rep − 1)
//
// γ = 1 ignores reputation, γ = 0 trusts it entirely.
type ReputationBlendConsumer struct{ Gamma float64 }

// Intention implements ConsumerPolicy.
func (g ReputationBlendConsumer) Intention(in ConsumerInputs) model.Intention {
	gamma := clamp01(g.Gamma)
	v := gamma*clampPref(in.Preference) + (1-gamma)*(2*clamp01(in.Reputation)-1)
	return model.Intention(v).Clamp()
}

func (g ReputationBlendConsumer) String() string {
	return fmt.Sprintf("consumer:reputation-blend(γ=%g)", g.Gamma)
}

// ResponseTimeConsumer cares only about response time: a provider expected
// to answer instantly gets +1, one expected to take twice the target gets
// -1/3, with -1 as the asymptote. Scenario 5 gives every project this
// profile ("projects be interested only in response times").
type ResponseTimeConsumer struct{}

// Intention implements ConsumerPolicy.
func (ResponseTimeConsumer) Intention(in ConsumerInputs) model.Intention {
	target := in.DelayTarget
	if target <= 0 {
		target = 1
	}
	delay := in.ExpectedDelay
	if delay < 0 {
		delay = 0
	}
	// Maps delay 0 → +1, delay = target → 0, delay → ∞ → -1.
	v := (target - delay) / (target + delay)
	return model.Intention(v).Clamp()
}

func (ResponseTimeConsumer) String() string { return "consumer:response-time" }

func clamp01(v float64) float64 {
	if v < 0 || v != v { // NaN guards
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func clampPref(v float64) float64 {
	if v < -1 || v != v {
		return -1
	}
	if v > 1 {
		return 1
	}
	return v
}
