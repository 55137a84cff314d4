// Package score implements the SQLB provider-scoring rule of the SbQA paper:
// Definition 3 (the score scr_q(p) balancing the consumer's and the
// provider's intentions) and Equation 2 (the satisfaction-adaptive balance
// ω), plus the ranking vector →R the mediator derives from the scores.
package score

import (
	"fmt"
	"math"
	"sort"

	"sbqa/internal/model"
)

// DefaultEpsilon is the paper's usual setting for the ε parameter of
// Definition 3. ε > 0 prevents the negative branch of the score from
// collapsing to 0 when one intention equals 1.
const DefaultEpsilon = 1.0

// Scorer computes provider scores under a fixed or adaptive balance.
type Scorer struct {
	// Epsilon is the ε of Definition 3; must be > 0. NewScorer defaults it
	// to DefaultEpsilon.
	Epsilon float64

	// FixedOmega, when in [0, 1], overrides the adaptive balance of
	// Equation 2 with a constant: ω = 0 scores providers purely by the
	// consumer's intentions (cooperative providers, quality-first
	// applications), ω = 1 purely by the providers' intentions. A negative
	// value (the default) selects the adaptive rule.
	FixedOmega float64
}

// NewScorer returns a scorer with the paper defaults: ε = 1 and the
// satisfaction-adaptive ω of Equation 2.
func NewScorer() *Scorer {
	return &Scorer{Epsilon: DefaultEpsilon, FixedOmega: -1}
}

// NewFixedScorer returns a scorer with a constant balance ω ∈ [0, 1].
func NewFixedScorer(omega float64) *Scorer {
	if omega < 0 {
		omega = 0
	}
	if omega > 1 {
		omega = 1
	}
	return &Scorer{Epsilon: DefaultEpsilon, FixedOmega: omega}
}

// Adaptive reports whether the scorer uses the satisfaction-adaptive ω.
func (s *Scorer) Adaptive() bool { return s.FixedOmega < 0 || s.FixedOmega > 1 }

// Omega returns the balance to use for a (consumer, provider) pair with
// long-run satisfactions satC = δs(c) and satP = δs(p). When the scorer is
// adaptive it implements Equation 2:
//
//	ω = ((δs(c) − δs(p)) + 1) / 2
//
// A consumer more satisfied than the provider pushes ω above ½, giving the
// provider's intention more weight — the mediator compensates whichever side
// has been treated worse.
func (s *Scorer) Omega(satC, satP float64) float64 {
	if !s.Adaptive() {
		return s.FixedOmega
	}
	return Omega(satC, satP)
}

// Omega is Equation 2 as a standalone function. Inputs are clamped to
// [0, 1], so the result is also in [0, 1].
func Omega(satC, satP float64) float64 {
	return ((clamp01(satC) - clamp01(satP)) + 1) / 2
}

// Score computes scr_q(p) — Definition 3 — for one provider given the
// provider's intention pi = PI_q[p], the consumer's intention ci = CI_q[p],
// and the balance omega ∈ [0, 1]:
//
//	scr = pi^ω · ci^(1−ω)                          if pi > 0 and ci > 0
//	scr = −((1−pi+ε)^ω · (1−ci+ε)^(1−ω))           otherwise
//
// The positive branch rewards mutual interest geometrically; the negative
// branch orders the remaining providers by how strongly the parties object,
// least-objectionable (closest to zero) first. Scores are comparable only
// within one mediation.
func (s *Scorer) Score(pi, ci model.Intention, omega float64) float64 {
	eps := s.Epsilon
	if eps <= 0 {
		eps = DefaultEpsilon
	}
	omega = clamp01(omega)
	p := float64(pi.Clamp())
	c := float64(ci.Clamp())
	if p > 0 && c > 0 {
		return math.Pow(p, omega) * math.Pow(c, 1-omega)
	}
	return -(math.Pow(1-p+eps, omega) * math.Pow(1-c+eps, 1-omega))
}

// View is the flattened, zero-copy form of one mediation's scoring input:
// position-aligned parallel columns over the Kn set, borrowed straight from
// the environment's batch buffers (no per-provider structs). All slices must
// have equal length; SatC is the consumer's δs, shared by every position.
type View struct {
	IDs  []model.ProviderID
	PI   []model.Intention
	CI   []model.Intention
	SatC float64
	SatP []float64
}

// Len returns the number of candidates in the view.
func (v View) Len() int { return len(v.IDs) }

// ScoreInto computes ω and scr_q(p) for every position of the view into the
// caller-provided columns (len(omega) == len(scores) == v.Len()), without
// allocating: Omega per pair, then Definition 3.
func (s *Scorer) ScoreInto(v View, omega, scores []float64) {
	for i := range v.IDs {
		w := s.Omega(v.SatC, v.SatP[i])
		omega[i] = w
		scores[i] = s.Score(v.PI[i], v.CI[i], w)
	}
}

// FlatRanker ranks flat score columns without allocating: Rank fills order
// with the permutation that sorts positions best-first — the paper's
// ranking vector →R, score descending with ties broken by provider ID
// ascending for determinism. Keep one FlatRanker per allocator and reuse
// it; it is not safe for concurrent use.
type FlatRanker struct {
	scores []float64
	ids    []model.ProviderID
	order  []int
}

// Rank fills order (len(order) == len(scores) == len(ids)) with the
// best-first position permutation.
func (r *FlatRanker) Rank(scores []float64, ids []model.ProviderID, order []int) {
	for i := range order {
		order[i] = i
	}
	r.scores, r.ids, r.order = scores, ids, order
	sort.Stable(r)
	r.scores, r.ids, r.order = nil, nil, nil
}

// Len implements sort.Interface.
func (r *FlatRanker) Len() int { return len(r.order) }

// Swap implements sort.Interface.
func (r *FlatRanker) Swap(i, j int) { r.order[i], r.order[j] = r.order[j], r.order[i] }

// Less implements sort.Interface: score descending, provider ID ascending.
func (r *FlatRanker) Less(i, j int) bool {
	a, b := r.order[i], r.order[j]
	if r.scores[a] != r.scores[b] {
		return r.scores[a] > r.scores[b]
	}
	return r.ids[a] < r.ids[b]
}

// String describes the scorer configuration for experiment logs.
func (s *Scorer) String() string {
	if s.Adaptive() {
		return fmt.Sprintf("sqlb(ω=adaptive, ε=%g)", s.Epsilon)
	}
	return fmt.Sprintf("sqlb(ω=%g, ε=%g)", s.FixedOmega, s.Epsilon)
}

func clamp01(v float64) float64 {
	if math.IsNaN(v) || v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
