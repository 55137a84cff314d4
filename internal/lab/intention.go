package lab

import "sbqa/internal/model"

// The volunteer preset's intention policies and reputation. The demo paper
// delegates the exact functions to the authors' SQLB paper; these
// reconstruct them from the demo's prose:
//
//	"[SQLB] affords consumers the flexibility to trade their preferences
//	 for the providers' reputation and providers the flexibility to trade
//	 their preferences for their utilization."
//
// A policy maps the participant's private state (static preferences, load,
// reputation, satisfaction) to an intention in [-1, 1]. Scenario 5 swaps
// policies at run time (projects become response-time seekers, volunteers
// load-only) to show that SbQA adapts to whatever the participants care
// about; that is why policies are small values rather than fixed formulas.

// providerInputs is what a provider policy may consult when forming its
// intention to perform a query.
type providerInputs struct {
	// preference is the provider's static preference for the query's
	// consumer, in [-1, 1] (how much the volunteer likes the project).
	preference float64
	// utilization is the provider's current utilization in [0, 1].
	utilization float64
	// satisfaction is the provider's δs(p) in [0, 1].
	satisfaction float64
}

// providerPolicy computes a provider's intention PI_q[p].
type providerPolicy func(providerInputs) model.Intention

// consumerInputs is what a consumer policy may consult when forming its
// intention to allocate a query to one candidate provider.
type consumerInputs struct {
	// preference is the consumer's static preference for the provider, in
	// [-1, 1].
	preference float64
	// reputation is the consumer's reputation estimate for the provider,
	// in [0, 1] (initialReputation = unknown).
	reputation float64
	// expectedDelay is the response time the provider would deliver for
	// this query (pending work + service time), in simulated seconds.
	expectedDelay float64
	// delayTarget is the response time the consumer considers good; it
	// normalizes expectedDelay.
	delayTarget float64
}

// consumerPolicy computes a consumer's intention CI_q[p].
type consumerPolicy func(consumerInputs) model.Intention

// preferenceProvider states the provider's static preferences, ignoring
// load: the "selfish specialist" profile.
func preferenceProvider(in providerInputs) model.Intention {
	return model.Intention(in.preference).Clamp()
}

// loadOnlyProvider states intentions from utilization alone: idle providers
// want queries (+1), saturated ones refuse them (-1). Scenario 5 gives
// every volunteer this profile ("volunteers be interested in their load").
func loadOnlyProvider(in providerInputs) model.Intention {
	return model.Intention(1 - 2*clamp(in.utilization, 0, 1)).Clamp()
}

// adaptiveProvider is the SQLB-style self-adjusting profile: the weight
// given to preferences grows as the provider becomes dissatisfied
// (β = 1 − δs(p)). A satisfied provider behaves altruistically and helps
// balance load; a starved or mistreated one insists on the queries it
// actually wants — the signal the mediator's adaptive ω then amplifies.
func adaptiveProvider(in providerInputs) model.Intention {
	beta := 1 - clamp(in.satisfaction, 0, 1)
	v := beta*clamp(in.preference, -1, 1) + (1-beta)*(1-2*clamp(in.utilization, 0, 1))
	return model.Intention(v).Clamp()
}

// preferenceConsumer states the consumer's static preferences for
// providers.
func preferenceConsumer(in consumerInputs) model.Intention {
	return model.Intention(in.preference).Clamp()
}

// reputationBlend trades preference for reputation with a fixed weight γ:
//
//	CI = γ·pref + (1−γ)·(2·rep − 1)
//
// γ = 1 ignores reputation, γ = 0 trusts it entirely.
func reputationBlend(gamma float64) consumerPolicy {
	gamma = clamp(gamma, 0, 1)
	return func(in consumerInputs) model.Intention {
		v := gamma*clamp(in.preference, -1, 1) + (1-gamma)*(2*clamp(in.reputation, 0, 1)-1)
		return model.Intention(v).Clamp()
	}
}

// responseTimeConsumer cares only about response time: a provider expected
// to answer instantly gets +1, one at the target 0, with -1 as the
// asymptote. Scenario 5 gives every project this profile ("projects be
// interested only in response times").
func responseTimeConsumer(in consumerInputs) model.Intention {
	target := in.delayTarget
	if target <= 0 {
		target = 1
	}
	delay := max(in.expectedDelay, 0)
	return model.Intention((target - delay) / (target + delay)).Clamp()
}

// clamp bounds v to [lo, hi]; NaN reads as lo.
func clamp(v, lo, hi float64) float64 {
	if v < lo || v != v {
		return lo
	}
	return min(v, hi)
}

// Reputation: a project's exponentially weighted memory of each volunteer
// it has received results from — the "reputation-based preferences" the
// demo gives BOINC projects.
const (
	// defaultAlpha is the EWMA weight of the most recent observation.
	defaultAlpha = 0.2
	// initialReputation is assumed for a provider never observed: neither
	// good nor bad.
	initialReputation = 0.5
)

// book is one consumer's reputation ledger.
type book struct {
	alpha  float64
	scores map[model.ProviderID]float64
}

func newBook(alpha float64) *book {
	return &book{alpha: alpha, scores: make(map[model.ProviderID]float64)}
}

// observe folds one outcome into provider p's reputation. quality is
// clamped to [0, 1]: 1 for a fast correct result, 0 for a failure.
func (b *book) observe(p model.ProviderID, quality float64) {
	cur, ok := b.scores[p]
	if !ok {
		cur = initialReputation
	}
	b.scores[p] = (1-b.alpha)*cur + b.alpha*min(max(quality, 0), 1)
}

// reputation returns provider p's reputation in [0, 1].
func (b *book) reputation(p model.ProviderID) float64 {
	if r, ok := b.scores[p]; ok {
		return r
	}
	return initialReputation
}
