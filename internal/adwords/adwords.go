// Package adwords instantiates SbQA on the paper's other motivating domain
// (§I): keyword advertising. User queries carry topic vectors; advertisers
// (the providers) hold dynamic topic interests — including temporary
// campaigns, like the pharmaceutical company promoting an insect repellent —
// and the search mediator (the consumer side, acting for its users) prefers
// relevant advertisers. SbQA balances user relevance against advertisers'
// current goals, and, unlike keyword matching alone, follows advertisers'
// intentions when their campaigns start and stop.
package adwords

import (
	"context"
	"fmt"
	"math"

	"sbqa/internal/alloc"
	"sbqa/internal/mediator"
	"sbqa/internal/model"
	"sbqa/internal/sim"
	"sbqa/internal/stats"
	"sbqa/internal/topics"
	"sbqa/internal/workload"
)

// Advertiser is a provider bidding for ad placements. Its intention toward
// a query is its current (campaign-aware) topical interest; its utilization
// is its delivery pacing — how far ahead of its target impression rate it
// is running.
type Advertiser struct {
	world *World

	id        model.ProviderID
	name      string
	interests *topics.Interests

	// targetRate is the impressions/second the advertiser wants to win;
	// pacing above it makes the advertiser look "utilized" to KnBest.
	targetRate float64

	// winRate is an exponentially decaying estimate of the recent win
	// rate (impressions/second), evaluated lazily at read time so pacing
	// relaxes even while the advertiser is not winning.
	winRate float64
	rateAt  float64
}

// pacingTau is the time constant (seconds) of the win-rate estimate.
const pacingTau = 20.0

// rate returns the decayed win-rate estimate at time now.
func (a *Advertiser) rate(now float64) float64 {
	if dt := now - a.rateAt; dt > 0 {
		a.winRate *= math.Exp(-dt / pacingTau)
		a.rateAt = now
	}
	return a.winRate
}

// ProviderID implements mediator.Provider.
func (a *Advertiser) ProviderID() model.ProviderID { return a.id }

// Name returns the advertiser's label.
func (a *Advertiser) Name() string { return a.name }

// Interests exposes the advertiser's dynamic profile (to schedule
// campaigns).
func (a *Advertiser) Interests() *topics.Interests { return a.interests }

// Snapshot implements mediator.Provider: utilization is delivery pacing.
func (a *Advertiser) Snapshot(now float64) model.ProviderSnapshot {
	util := 0.0
	if a.targetRate > 0 {
		util = a.rate(now) / a.targetRate
		if util > 1 {
			util = 1
		}
	}
	return model.ProviderSnapshot{
		ID:          a.id,
		Utilization: util,
		Capacity:    a.targetRate,
	}
}

// Intention implements mediator.Provider: the advertiser's current topical
// interest in the query.
func (a *Advertiser) Intention(q model.Query) model.Intention {
	topic := a.world.topicOf(q)
	return a.interests.PreferenceAt(a.world.engine.Now(), topic)
}

// Bid implements mediator.Provider (economic baseline): advertisers pay per
// impression; an interest-blind auction charges everyone alike, so the bid
// is just inverse pacing (under-delivering advertisers bid lower prices to
// win more).
func (a *Advertiser) Bid(model.Query) float64 {
	return 1 + a.rate(a.world.engine.Now())
}

// recordWin updates pacing.
func (a *Advertiser) recordWin() {
	now := a.world.engine.Now()
	a.rate(now) // decay to now
	a.winRate += 1 / pacingTau
}

// searchSide is the consumer: it acts for the users, preferring advertisers
// whose *base* profile is relevant to the query (users care about relevance,
// not about the advertiser's promotion calendar).
type searchSide struct {
	world *World
	id    model.ConsumerID
}

func (s *searchSide) ConsumerID() model.ConsumerID { return s.id }

func (s *searchSide) Intention(q model.Query, snap model.ProviderSnapshot) model.Intention {
	adv := s.world.advertiserByID(snap.ID)
	if adv == nil {
		return 0
	}
	// Relevance against the advertiser's base (stable) profile.
	return topics.Preference(adv.interests.Base, s.world.topicOf(q))
}

// Config sizes an ad world.
type Config struct {
	// TopicDim is the dimensionality of the topic space.
	TopicDim int
	// QueryRate is user queries per second.
	QueryRate float64
	// Duration is the simulated horizon.
	Duration float64
	// Window is the satisfaction memory length.
	Window int
	// Seed drives the query stream.
	Seed uint64
}

// World is a runnable ad-mediation simulation.
type World struct {
	cfg Config

	engine *sim.Engine
	med    *mediator.Mediator
	rng    *stats.RNG

	advertisers []*Advertiser
	topicsOf    map[model.QueryID]topics.Vector
	nextQID     model.QueryID

	// queryMix holds one weight per topic; each query picks a dominant
	// topic by these weights and adds small off-topic noise.
	queryMix []float64
}

// NewWorld builds an ad world running the given allocation technique.
func NewWorld(allocator alloc.Allocator, cfg Config) (*World, error) {
	if cfg.TopicDim < 1 {
		return nil, fmt.Errorf("adwords: need at least 1 topic, got %d", cfg.TopicDim)
	}
	if cfg.QueryRate <= 0 {
		cfg.QueryRate = 2
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 1000
	}
	if cfg.Window < 1 {
		cfg.Window = 50
	}
	w := &World{
		cfg:      cfg,
		engine:   sim.NewEngine(),
		rng:      stats.NewRNG(cfg.Seed ^ 0xad5),
		topicsOf: make(map[model.QueryID]topics.Vector),
		queryMix: make([]float64, cfg.TopicDim),
	}
	for i := range w.queryMix {
		w.queryMix[i] = 1 // uniform topic mix by default
	}
	w.med = mediator.New(allocator, mediator.Config{Window: cfg.Window})
	w.med.RegisterConsumer(&searchSide{world: w, id: 0})
	return w, nil
}

// AddAdvertiser registers an advertiser with a base interest profile and a
// target impression rate.
func (w *World) AddAdvertiser(name string, base topics.Vector, targetRate float64) *Advertiser {
	a := &Advertiser{
		world:      w,
		id:         model.ProviderID(len(w.advertisers)),
		name:       name,
		interests:  topics.NewInterests(base),
		targetRate: targetRate,
	}
	w.advertisers = append(w.advertisers, a)
	w.med.RegisterProvider(a)
	return a
}

// Advertisers returns the registered advertisers.
func (w *World) Advertisers() []*Advertiser { return w.advertisers }

// Mediator exposes the pipeline (satisfaction readings).
func (w *World) Mediator() *mediator.Mediator { return w.med }

func (w *World) advertiserByID(id model.ProviderID) *Advertiser {
	if int(id) < 0 || int(id) >= len(w.advertisers) {
		return nil
	}
	return w.advertisers[id]
}

// topicOf returns the query's topic vector.
func (w *World) topicOf(q model.Query) topics.Vector {
	return w.topicsOf[q.ID]
}

// DominantTopic returns the index of the query's largest topic weight
// (valid while the query is being mediated or inside an OnWin callback).
func (w *World) DominantTopic(q model.Query) int { return w.dominantTopic(q) }

// dominantTopic returns the index of the query's largest topic weight.
func (w *World) dominantTopic(q model.Query) int {
	v := w.topicsOf[q.ID]
	best, idx := -1.0, 0
	for i, x := range v {
		if x > best {
			best, idx = x, i
		}
	}
	return idx
}

// sampleTopic draws a query topic vector: one dominant topic by the mix
// weights plus small noise on the others.
func (w *World) sampleTopic() topics.Vector {
	var sum float64
	for _, m := range w.queryMix {
		sum += m
	}
	u := w.rng.Float64() * sum
	dom := 0
	for i, m := range w.queryMix {
		if u < m {
			dom = i
			break
		}
		u -= m
	}
	v := make(topics.Vector, w.cfg.TopicDim)
	for i := range v {
		v[i] = 0.1 * w.rng.Float64()
	}
	v[dom] = 1
	return v
}

// OnWin is invoked for every placement (query, winner); set before Run.
type OnWin func(q model.Query, winner *Advertiser)

// Run streams queries for the configured duration, mediating each one to a
// single advertiser (ad slots are exclusive), and returns the number of
// placements.
func (w *World) Run(onWin OnWin) int {
	placements := 0
	var arrive func()
	arrive = func() {
		gap := workload.Poisson{Rate: w.cfg.QueryRate}.Next(w.engine.Now(), w.rng)
		w.engine.Schedule(gap, func() {
			w.nextQID++
			q := model.Query{
				ID:       w.nextQID,
				Consumer: 0,
				N:        1,
				Work:     1,
				IssuedAt: w.engine.Now(),
			}
			w.topicsOf[q.ID] = w.sampleTopic()
			if a, err := w.med.Mediate(context.Background(), w.engine.Now(), q); err == nil && len(a.Selected) > 0 {
				winner := w.advertiserByID(a.Selected[0])
				if winner != nil {
					winner.recordWin()
					placements++
					if onWin != nil {
						onWin(q, winner)
					}
				}
			}
			delete(w.topicsOf, q.ID)
			arrive()
		})
	}
	arrive()
	w.engine.Run(w.cfg.Duration)
	return placements
}
