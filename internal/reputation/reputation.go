// Package reputation tracks, per consumer, an exponentially weighted
// reputation for every provider the consumer has interacted with. The SbQA
// framework lets consumers trade their static preferences for provider
// reputation when expressing intentions (see internal/intention), which is
// how the demo's "reputation-based preferences" for BOINC consumers are
// realized.
package reputation

import (
	"sbqa/internal/model"
)

// DefaultAlpha is the default EWMA weight of the most recent observation.
const DefaultAlpha = 0.2

// Initial is the reputation assumed for a provider never observed before:
// neither good nor bad.
const Initial = 0.5

// Book is one consumer's reputation ledger. It is not safe for concurrent
// use.
type Book struct {
	alpha  float64
	scores map[model.ProviderID]float64
}

// NewBook returns a ledger with the given EWMA weight; alpha outside (0, 1]
// falls back to DefaultAlpha.
func NewBook(alpha float64) *Book {
	if alpha <= 0 || alpha > 1 {
		alpha = DefaultAlpha
	}
	return &Book{alpha: alpha, scores: make(map[model.ProviderID]float64)}
}

// Observe folds one interaction outcome into provider p's reputation.
// quality must be in [0, 1]: 1 for a perfect interaction (fast, correct
// result), 0 for a failure (no or invalid result). Values are clamped.
func (b *Book) Observe(p model.ProviderID, quality float64) {
	if quality < 0 {
		quality = 0
	}
	if quality > 1 {
		quality = 1
	}
	cur, ok := b.scores[p]
	if !ok {
		cur = Initial
	}
	b.scores[p] = (1-b.alpha)*cur + b.alpha*quality
}

// Reputation returns provider p's reputation in [0, 1]; Initial if p has
// never been observed.
func (b *Book) Reputation(p model.ProviderID) float64 {
	if r, ok := b.scores[p]; ok {
		return r
	}
	return Initial
}

// QualityFromLatency converts an observed response time into a quality
// signal: 1 at zero latency, 0.5 at the target, approaching 0 as latency
// grows. target must be > 0; non-positive targets score 1 for any latency.
func QualityFromLatency(observed, target float64) float64 {
	if target <= 0 {
		return 1
	}
	if observed < 0 {
		observed = 0
	}
	return target / (target + observed)
}
