package lab

import (
	"context"
	"math"

	"sbqa/internal/model"
	"sbqa/internal/stats"
	"sbqa/internal/topics"
	"sbqa/internal/workload"
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
	topic       topics.Vector // the in-flight query's topics
	advertisers []*advertiser

	// onWin, a study seam, sees every placement with its query's topics.
	onWin func(q model.Query, topic topics.Vector, winner *advertiser)
}

// buildAds registers the search side and the advertisers.
func (w *world) buildAds() {
	spec := w.sc.Workload.Ads
	w.ads = &adMarket{rng: stats.NewRNG(w.sc.Seed ^ 0xad5)}
	w.live.RegisterConsumer(searchSide{w})
	for i, as := range spec.Advertisers {
		a := &advertiser{w: w, id: model.ProviderID(i), interests: topics.NewInterests(as.Interests), targetRate: as.TargetRate}
		w.ads.advertisers = append(w.ads.advertisers, a)
		w.live.RegisterProvider(a)
	}
}

// scheduleAdQuery books the next user query.
func (w *world) scheduleAdQuery() {
	m := w.ads
	gap := workload.Poisson{Rate: w.sc.Workload.Ads.Rate}.Next(w.eng.Now(), m.rng)
	w.eng.Schedule(gap, func() {
		w.report.Issued++
		dim := len(w.sc.Workload.Ads.Advertisers[0].Interests)
		dom := int(m.rng.Float64() * float64(dim))
		m.topic = make(topics.Vector, dim)
		for i := range m.topic {
			m.topic[i] = 0.1 * m.rng.Float64()
		}
		m.topic[dom] = 1
		a, err := w.live.Mediate(context.Background(), model.Query{N: 1, Work: 1})
		if err == nil && len(a.Selected) > 0 {
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
func dominantTopic(v topics.Vector) int {
	best, idx := -1.0, 0
	for i, x := range v {
		if x > best {
			best, idx = x, i
		}
	}
	return idx
}

// advertiser is a provider bidding for ad slots. Its intention toward a
// query is its current, campaign-aware interest in the query's topics; its
// utilization is its delivery pacing.
type advertiser struct {
	w          *world
	id         model.ProviderID
	interests  *topics.Interests
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
	return a.interests.PreferenceAt(a.w.eng.Now(), a.w.ads.topic)
}

// Bid is the interest-blind auction's price: everyone pays alike per
// impression, so under-delivering advertisers bid lower to win more.
func (a *advertiser) Bid(model.Query) float64 { return 1 + a.rate(a.w.eng.Now()) }

// searchSide is the consumer: it acts for the users, who care about an
// advertiser's relevance — its base profile — not its promotion calendar.
type searchSide struct{ w *world }

func (searchSide) ConsumerID() model.ConsumerID { return 0 }

func (s searchSide) Intention(_ model.Query, snap model.ProviderSnapshot) model.Intention {
	return topics.Preference(s.w.ads.advertisers[snap.ID].interests.Base, s.w.ads.topic)
}
