package lab

import (
	"context"
	"math"

	"sbqa/internal/model"
	"sbqa/internal/stats"
)

// AdSpec is the keyword-advertising preset (the paper's §I motivation):
// user queries carry topic vectors, advertisers (the providers) hold topic
// interests that campaigns can boost for a while, and the search side (the
// one consumer, acting for its users) prefers advertisers whose base
// profile is relevant. Each query is one exclusive ad slot.
type AdSpec struct {
	// Rate is user queries per second. Each query has one dominant topic,
	// drawn uniformly, plus noise below 0.1 on the others.
	Rate float64 `json:"rate"`

	// Advertisers are registered in order, as providers 0, 1, ...
	Advertisers []AdvertiserSpec `json:"advertisers"`
}

// AdvertiserSpec declares one advertiser.
type AdvertiserSpec struct {
	Name string `json:"name"`

	// Interests is the base topic profile; its length is the dimension of
	// the topic space.
	Interests []float64 `json:"interests"`

	// TargetRate is the impressions per second the advertiser wants: its
	// utilization is its recent win rate against it (delivery pacing).
	TargetRate float64 `json:"target_rate"`
}

// pacingTau is the time constant (seconds) of an advertiser's win-rate
// estimate.
const pacingTau = 20.0

// adMarket is an ad run's state: the query stream, the query being
// mediated, and the advertisers.
type adMarket struct {
	rng         *stats.RNG
	topic       vector // the in-flight query's topics
	advertisers []*advertiser

	// onWin, a study seam, sees every placement with its query's topics.
	onWin func(q model.Query, topic vector, winner *advertiser)
}

// buildAds registers the search side and the advertisers.
func (w *world) buildAds() {
	spec := w.sc.Workload.Ads
	w.ads = &adMarket{rng: stats.NewRNG(w.sc.Seed ^ 0xad5)}
	w.live.RegisterConsumer(searchSide{w})
	for i, as := range spec.Advertisers {
		a := &advertiser{w: w, id: model.ProviderID(i), interests: newInterests(as.Interests), targetRate: as.TargetRate}
		w.ads.advertisers = append(w.ads.advertisers, a)
		w.live.RegisterProvider(a)
	}
}

// scheduleAdQuery books the next user query.
func (w *world) scheduleAdQuery() {
	m := w.ads
	w.eng.Schedule(m.rng.ExpFloat64()/w.sc.Workload.Ads.Rate, func() {
		w.report.Issued++
		dim := len(w.sc.Workload.Ads.Advertisers[0].Interests)
		dom := int(m.rng.Float64() * float64(dim))
		m.topic = make(vector, dim)
		for i := range m.topic {
			m.topic[i] = 0.1 * m.rng.Float64()
		}
		m.topic[dom] = 1
		a, err := w.live.Mediate(context.Background(), model.Query{N: 1, Work: 1})
		if err != nil || len(a.Selected) == 0 {
			w.report.Rejected++ // the slot stays empty
		} else {
			winner := m.advertisers[a.Selected[0]]
			winner.recordWin()
			w.report.Mediated++
			if m.onWin != nil {
				m.onWin(a.Query, m.topic, winner)
			}
		}
		w.scheduleAdQuery()
	})
}

// dominantTopic is the index of v's largest weight.
func dominantTopic(v vector) int {
	best, idx := -1.0, 0
	for i, x := range v {
		if x > best {
			best, idx = x, i
		}
	}
	return idx
}

// advertiser is a provider bidding for ad slots. It is not the lab's
// provider model: it runs nothing, so it has no lane, and its utilization
// is its delivery pacing. Its intention toward a
// query is its current, campaign-aware interest in the query's topics; its
// utilization is its delivery pacing.
type advertiser struct {
	w          *world
	id         model.ProviderID
	interests  *interests
	targetRate float64

	// winRate is an exponentially decaying estimate of the recent win rate
	// (wins per second), decayed lazily to rateAt on every read, so pacing
	// relaxes while the advertiser is not winning.
	winRate, rateAt float64
}

func (a *advertiser) rate(now float64) float64 {
	if dt := now - a.rateAt; dt > 0 {
		a.winRate *= math.Exp(-dt / pacingTau)
		a.rateAt = now
	}
	return a.winRate
}

func (a *advertiser) recordWin() {
	a.rate(a.w.eng.Now())
	a.winRate += 1 / pacingTau
}

func (a *advertiser) ProviderID() model.ProviderID { return a.id }

func (a *advertiser) Snapshot(now float64) model.ProviderSnapshot {
	util := 0.0
	if a.targetRate > 0 {
		util = min(a.rate(now)/a.targetRate, 1)
	}
	return model.ProviderSnapshot{ID: a.id, Utilization: util, Capacity: a.targetRate}
}

func (a *advertiser) Intention(model.Query) model.Intention {
	return a.interests.preferenceAt(a.w.eng.Now(), a.w.ads.topic)
}

// Bid is the interest-blind auction's price: everyone pays alike per
// impression, so under-delivering advertisers bid lower to win more.
func (a *advertiser) Bid(model.Query) float64 { return 1 + a.rate(a.w.eng.Now()) }

// searchSide is the consumer: it acts for the users, who care about an
// advertiser's relevance — its base profile — not its promotion calendar.
type searchSide struct{ w *world }

func (searchSide) ConsumerID() model.ConsumerID { return 0 }

func (s searchSide) Intention(_ model.Query, snap model.ProviderSnapshot) model.Intention {
	return preference(s.w.ads.advertisers[snap.ID].interests.base, s.w.ads.topic)
}

// Topics: queries carry topic vectors and advertisers hold interest
// vectors over the same topic space, with preference = cosine similarity.
// The paper's §I: a provider's interests "are only based on some
// predefined topics (keywords) while their interests may be dynamic. For
// instance, a provider could represent a pharmaceutical company, which
// wants to promote a new insect repellent. Thus, during the promotion, it
// is more interested in treating the queries related to mosquitoes or
// insect bites than general queries. Once the advertising campaign is
// over, its intentions may change." A campaign is that temporary boost.

// vector is a dense topic weight vector. Weights are free-scale;
// similarity is normalized, so only direction matters.
type vector []float64

// cosine returns the cosine similarity in [-1, 1]; zero vectors are
// orthogonal to everything (similarity 0). Both vectors are pre-scaled by
// their largest magnitude — cosine is scale-invariant — so extreme weights
// cannot overflow to Inf/NaN.
func (v vector) cosine(w vector) float64 {
	sv, sw := v.maxAbs(), w.maxAbs()
	if sv == 0 || sw == 0 {
		return 0
	}
	var dot, nv, nw float64
	for i := 0; i < max(len(v), len(w)); i++ {
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
	return min(max(dot/math.Sqrt(nv*nw), -1), 1)
}

// maxAbs returns the largest absolute component (0 for an empty or
// all-zero vector; NaN components are ignored).
func (v vector) maxAbs() float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m && !math.IsNaN(a) {
			m = a
		}
	}
	return m
}

// add returns v + w (dimension = max of the two).
func (v vector) add(w vector) vector {
	out := make(vector, max(len(v), len(w)))
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

// preference is an interest vector's preference for a query's topics: the
// cosine — aligned wants it (+1), orthogonal is indifferent, opposed
// objects (-1).
func preference(interest, query vector) model.Intention {
	return model.Intention(interest.cosine(query)).Clamp()
}

// campaign is a temporary interest boost: before until, boost is added to
// the base interests; afterwards the base stands alone.
type campaign struct {
	boost vector
	until float64
}

// interests is an advertiser's dynamic topic profile: base interests plus
// any number of campaigns.
type interests struct {
	base      vector
	campaigns []campaign
}

func newInterests(base vector) *interests { return &interests{base: base} }

func (in *interests) addCampaign(c campaign) { in.campaigns = append(in.campaigns, c) }

// at returns the effective interest vector at time now: base plus every
// running campaign's boost.
func (in *interests) at(now float64) vector {
	v := in.base
	for _, c := range in.campaigns {
		if now < c.until {
			v = v.add(c.boost)
		}
	}
	return v
}

// preferenceAt is the profile's preference for a query's topics at time
// now.
func (in *interests) preferenceAt(now float64, query vector) model.Intention {
	return preference(in.at(now), query)
}
