// Package topics implements content-based interests: queries carry topic
// vectors and participants hold interest vectors over the same topic space,
// with preference = cosine similarity mapped to [-1, 1].
//
// This realizes the paper's Google AdWords motivation (§I): providers'
// interests "are only based on some predefined topics (keywords) while
// their interests may be dynamic. For instance, a provider could represent
// a pharmaceutical company, which wants to promote a new insect repellent.
// Thus, during the promotion, it is more interested in treating the queries
// related to mosquitoes or insect bites than general queries. Once the
// advertising campaign is over, its intentions may change."
//
// Campaigns model exactly that: a temporary boost of some topic dimensions
// that expires at a deadline, after which the participant's base interests
// resume.
package topics

import (
	"fmt"
	"math"

	"sbqa/internal/model"
)

// Vector is a dense topic weight vector. Weights are free-scale; similarity
// is normalized, so only direction matters.
type Vector []float64

// Dim returns the number of topics.
func (v Vector) Dim() int { return len(v) }

// Cosine returns the cosine similarity in [-1, 1]; zero vectors are
// orthogonal to everything (similarity 0). The computation pre-scales both
// vectors by their largest magnitude — cosine is scale-invariant — so
// extreme weights cannot overflow to Inf/NaN.
func (v Vector) Cosine(w Vector) float64 {
	sv, sw := v.maxAbs(), w.maxAbs()
	if sv == 0 || sw == 0 {
		return 0
	}
	var dot, nv, nw float64
	n := len(v)
	if len(w) > n {
		n = len(w)
	}
	for i := 0; i < n; i++ {
		var a, b float64
		if i < len(v) {
			a = v[i] / sv
		}
		if i < len(w) {
			b = w[i] / sw
		}
		dot += a * b
		nv += a * a
		nw += b * b
	}
	if nv == 0 || nw == 0 {
		return 0
	}
	c := dot / math.Sqrt(nv*nw)
	if c > 1 {
		return 1
	}
	if c < -1 {
		return -1
	}
	return c
}

// maxAbs returns the largest absolute component (0 for an empty or all-zero
// vector; NaN components are ignored).
func (v Vector) maxAbs() float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m && !math.IsNaN(a) {
			m = a
		}
	}
	return m
}

// Add returns v + w (dimension = max of the two).
func (v Vector) Add(w Vector) Vector {
	n := len(v)
	if len(w) > n {
		n = len(w)
	}
	out := make(Vector, n)
	for i := range out {
		if i < len(v) {
			out[i] += v[i]
		}
		if i < len(w) {
			out[i] += w[i]
		}
	}
	return out
}

// Preference maps the similarity between an interest vector and a query's
// topic vector onto a preference in [-1, 1]. It is simply the cosine: a
// provider aligned with the query wants it (+1), an orthogonal one is
// indifferent (0), an opposed one objects (-1).
func Preference(interest, query Vector) model.Intention {
	return model.Intention(interest.Cosine(query)).Clamp()
}

// Campaign is a temporary interest boost: while Now < Until, Boost is added
// to the participant's base interests (the promotion); afterwards the base
// interests stand alone.
type Campaign struct {
	Boost Vector
	Until float64
}

// Active reports whether the campaign is still running at time now.
func (c Campaign) Active(now float64) bool { return now < c.Until }

// Interests is a participant's dynamic topic profile: base interests plus
// any number of scheduled campaigns.
type Interests struct {
	Base      Vector
	campaigns []Campaign
}

// NewInterests returns a profile with the given base vector.
func NewInterests(base Vector) *Interests { return &Interests{Base: base} }

// AddCampaign schedules a promotion.
func (in *Interests) AddCampaign(c Campaign) { in.campaigns = append(in.campaigns, c) }

// At returns the effective interest vector at time now: base plus all
// active campaign boosts.
func (in *Interests) At(now float64) Vector {
	v := in.Base
	for _, c := range in.campaigns {
		if c.Active(now) {
			v = v.Add(c.Boost)
		}
	}
	return v
}

// PreferenceAt returns the participant's preference for a query with the
// given topic vector at time now.
func (in *Interests) PreferenceAt(now float64, query Vector) model.Intention {
	return Preference(in.At(now), query)
}

// String renders the profile for logs.
func (in *Interests) String() string {
	return fmt.Sprintf("interests(dim=%d, campaigns=%d)", in.Base.Dim(), len(in.campaigns))
}
