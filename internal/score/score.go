// Package score implements the SQLB provider-scoring rule of the SbQA paper:
// Definition 3 (the score scr_q(p) balancing the consumer's and the
// provider's intentions) and Equation 2 (the satisfaction-adaptive balance
// ω), plus the ranking vector →R the mediator derives from the scores.
package score

import (
	"cmp"
	"fmt"
	"math"
	"slices"

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
	eps := s.epsilon()
	omega = clamp01(omega)
	p := float64(pi.Clamp())
	c := float64(ci.Clamp())
	if p > 0 && c > 0 {
		return math.Pow(p, omega) * math.Pow(c, 1-omega)
	}
	return -(math.Pow(1-p+eps, omega) * math.Pow(1-c+eps, 1-omega))
}

// epsilon returns the ε in force: Epsilon, or DefaultEpsilon when unset.
func (s *Scorer) epsilon() float64 {
	if s.Epsilon <= 0 {
		return DefaultEpsilon
	}
	return s.Epsilon
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
// ascending for determinism. It holds no state; the zero value is ready.
type FlatRanker struct{}

// Rank fills order (len(order) == len(scores) == len(ids)) with the
// best-first position permutation.
func (*FlatRanker) Rank(scores []float64, ids []model.ProviderID, order []int) {
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		switch {
		case scores[a] > scores[b]:
			return -1
		case scores[a] < scores[b]:
			return 1
		}
		return cmp.Compare(ids[a], ids[b])
	})
}

// Ranker ranks one mediation's Kn best-first in exactly the order FlatRanker
// gives ScoreInto's scores, without computing most of them. Definition 3 is
// a weighted geometric mean, so its logarithm orders the candidates the same
// way: the positive branch first, by ω·ln p + (1−ω)·ln c descending, then
// the negative branch, by ω·ln(1−p+ε) + (1−ω)·ln(1−c+ε) ascending. Two
// math.Log calls per candidate replace two math.Pow calls. Rounding can
// still reorder candidates whose keys lie within tau of each other, so any
// run of adjacent keys that close is re-sorted by the literal score, then by
// ID. It holds only scratch; the zero value is ready.
type Ranker struct {
	keys []rankKey
	lit  []float64
}

// rankKey is one candidate's place in the key order.
type rankKey struct {
	v   float64 // the log of |score|, negated on the negative branch: larger is better
	neg bool    // the negative branch of Definition 3
	i   int     // position in the view
}

// tau bounds how far rounding can move a key from the log of the literal
// score, counted on both candidates of a pair; keys further apart than tau
// order their literal scores strictly the same way.
//
// Derivation, with u = 2⁻⁵³ and m = |ω·ln x| + |(1−ω)·ln y| for a candidate
// whose branch takes x and y (p and c, or 1−p+ε and 1−c+ε, computed by the
// same expressions Score uses; 1−ω likewise). Go's math.Log and math.Exp are
// within one ulp; allow two (4u). The key ω·Log(x) + (1−ω)·Log(y) is then
// within (4u + u)·m of the exact ω·ln x + (1−ω)·ln y for the two products,
// plus u·m for the sum: E_k ≤ 6u·m. math.Pow(x, w) with w ∈ (0, 1) is exact
// at w = 1, a correctly rounded Sqrt at w = ½, and otherwise
// Exp(f·Log(x)) times x's mantissa when w > ½, where f = w or w−1
// (exactly), so |f·ln x| ≤ |w·ln x|: relative error 5u·|w·ln x| + 5u. The
// product of the two powers adds u, so the literal score is within
// E_l ≤ 5u·m + 11u of the exact one, relatively, which is an absolute
// error of the same size in the log. For keys a > b, ka − kb > 2E_k + 2E_l
// then implies a's literal score beats b's strictly, and 2E_k + 2E_l ≤
// 22u·m + 22u. The fast path runs only while every candidate has
// m ≤ maxKeyMagnitude = 64, so scores stay far from underflow and overflow,
// and 22u·65 ≈ 1.6e-13; tau = 1e-12 leaves a factor of six. A mediation
// with a larger m (an intention within e⁻⁶⁴ of 0, say, or an extreme ε), a
// NaN or an infinity is ranked by the literal scores instead.
const (
	tau             = 1e-12
	maxKeyMagnitude = 64
)

// Rank fills omega with each position's ω (as ScoreInto does) and order
// with the best-first permutation FlatRanker.Rank gives ScoreInto's scores.
// All three columns have v.Len() entries; IDs break ties.
func (r *Ranker) Rank(s *Scorer, v View, omega []float64, order []int) {
	n := v.Len()
	if cap(r.keys) < n {
		r.keys = make([]rankKey, n)
	}
	keys := r.keys[:n]
	eps := s.epsilon()
	for i := range keys {
		w := s.Omega(v.SatC, v.SatP[i])
		omega[i] = w
		k, ok := logKey(float64(v.PI[i].Clamp()), float64(v.CI[i].Clamp()), clamp01(w), eps)
		if !ok {
			r.rankLiteral(s, v, omega, order)
			return
		}
		k.i = i
		keys[i] = k
	}
	slices.SortFunc(keys, func(a, b rankKey) int {
		if a.neg != b.neg {
			if b.neg {
				return -1
			}
			return 1
		}
		return cmp.Compare(b.v, a.v)
	})
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && keys[hi].neg == keys[lo].neg && keys[hi-1].v-keys[hi].v <= tau {
			hi++
		}
		if hi-lo > 1 {
			r.settle(s, v, omega, keys[lo:hi])
		}
		lo = hi
	}
	for r2, k := range keys {
		order[r2] = k.i
	}
}

// logKey returns the key of one candidate, and false when the fast path's
// error bound does not hold for it (see tau).
func logKey(p, c, w, eps float64) (rankKey, bool) {
	neg := !(p > 0 && c > 0)
	x, y := p, c
	if neg {
		x, y = 1-p+eps, 1-c+eps
	}
	a, b := w*math.Log(x), (1-w)*math.Log(y)
	if !(math.Abs(a)+math.Abs(b) <= maxKeyMagnitude) {
		return rankKey{}, false
	}
	if neg {
		return rankKey{v: -(a + b), neg: true}, true
	}
	return rankKey{v: a + b}, true
}

// settle re-sorts a run of keys too close to order by their literal scores:
// score descending, then ID, then position, the order a stable sort of the
// identity permutation gives.
func (r *Ranker) settle(s *Scorer, v View, omega []float64, run []rankKey) {
	if cap(r.lit) < v.Len() {
		r.lit = make([]float64, v.Len())
	}
	lit := r.lit[:v.Len()]
	for _, k := range run {
		lit[k.i] = s.Score(v.PI[k.i], v.CI[k.i], omega[k.i])
	}
	slices.SortFunc(run, func(a, b rankKey) int {
		if c := cmp.Compare(lit[b.i], lit[a.i]); c != 0 {
			return c
		}
		if c := cmp.Compare(v.IDs[a.i], v.IDs[b.i]); c != 0 {
			return c
		}
		return cmp.Compare(a.i, b.i)
	})
}

// rankLiteral is Rank's fallback: the literal scores, ranked by FlatRanker.
func (r *Ranker) rankLiteral(s *Scorer, v View, omega []float64, order []int) {
	if cap(r.lit) < v.Len() {
		r.lit = make([]float64, v.Len())
	}
	lit := r.lit[:v.Len()]
	s.ScoreInto(v, omega, lit)
	(&FlatRanker{}).Rank(lit, v.IDs, order)
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
