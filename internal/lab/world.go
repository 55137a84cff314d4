package lab

import (
	"math"

	"sbqa/internal/model"
	"sbqa/internal/stats"
)

// behavior classifies a provider's honesty. The class populations draw
// the first three from AdversarySpec; the volunteer preset's hosts are
// honest or malicious.
type behavior uint8

const (
	honest behavior = iota
	freeRider
	overClaimer
	malicious // executes, but returns invalid results
	behaviors
)

// Adversary distortion constants: over-claimers advertise claimFactor× an
// honest draw while actually running at overClaimSlowdown of it.
const (
	utilizationHorizon = 30.0 // seconds of backlog that count as "fully busy"
	claimFactor        = 8.0
	overClaimSlowdown  = 0.25
	reputationAlpha    = 0.3 // consumer EWMA step per observed completion
	loadPenaltyQueue   = 10.0
)

// mix64 is a splitmix64-style hash over three words, the lab's source of
// per-pair deterministic "static" preferences — storing a consumers ×
// providers preference matrix is impossible at millions of participants,
// so preferences are pure functions of (seed, who, whom).
func mix64(a, b, c uint64) uint64 {
	x := a*0x9E3779B97F4A7C15 ^ b*0xBF58476D1CE4E5B9 ^ c*0x94D049BB133111EB
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// provider is the lab's one provider model: a FIFO execution lane at its
// capacity, a behavior, and lifetime accounting. Its intention and bid are
// the population's (world.intention, world.bid), set by the preset's
// builder; state only volunteers need sits behind vol. All methods run on
// the single simulation goroutine — no locking.
type provider struct {
	w        *world
	id       model.ProviderID
	class    int32 // index into world.caps
	behavior behavior
	online   bool
	capacity float64 // true work units / second

	// The lane: when its FIFO queue drains, the allocations it holds
	// (queued + executing) and their work, and the seconds it has spent
	// executing (the utilization numerator).
	busyUntil   float64
	queueLen    int
	pendingWork float64
	busyTime    float64
	allocs      int // lifetime allocations won: selections dispatched to it

	vol *volunteer // nil outside the volunteer preset
}

// Capabilities returns the population's shared capability slice for the
// provider's class, so a million registrations do not allocate a million
// identical slices; a nil entry files the provider as universal.
func (p *provider) Capabilities() []int { return p.w.caps[p.class] }

func (p *provider) ProviderID() model.ProviderID { return p.id }

func (p *provider) satisfaction() float64 { return p.w.live.ProviderSatisfaction(p.id) }

// utilization maps the backlog's drain time onto [0, 1] against the
// population's horizon.
func (p *provider) utilization(now float64) float64 {
	backlog := p.busyUntil - now
	if backlog <= 0 {
		return 0
	}
	return min(backlog/p.w.horizon, 1)
}

func (p *provider) Snapshot(now float64) model.ProviderSnapshot {
	snap := model.ProviderSnapshot{
		ID:          p.id,
		Utilization: p.utilization(now),
		QueueLen:    p.queueLen,
		Capacity:    p.capacity,
		PendingWork: p.pendingWork,
	}
	if p.w.backlogWork {
		snap.PendingWork = max(p.busyUntil-now, 0) * p.capacity
	}
	switch p.behavior {
	case freeRider:
		// Free-riders always look idle — they never execute anything, so
		// technically they are.
		snap.Utilization = 0
		snap.QueueLen = 0
		snap.PendingWork = 0
	case overClaimer:
		// Advertise a machine claimFactor× the true one and deny having any
		// backlog at all — the lie that makes self-reported-state allocators
		// take the bait, while satisfaction-led ones learn from deliveries.
		snap.Capacity = p.capacity * claimFactor / overClaimSlowdown
		snap.Utilization = 0
		snap.QueueLen = 0
		snap.PendingWork = 0
	}
	return snap
}

func (p *provider) Intention(q model.Query) model.Intention { return p.w.intention(p, q) }

func (p *provider) Bid(q model.Query) float64 { return p.w.bid(p, q) }

// enqueue books q on the lane and returns its completion time: FIFO at the
// provider's capacity or, where the volunteer enforces shares, on q's
// project's own lane at that project's share of the capacity.
func (p *provider) enqueue(q model.Query) float64 {
	now := p.w.eng.Now()
	service := q.Work / p.capacity
	var done float64
	if v, c := p.vol, int(q.Consumer); v != nil && c >= 0 && c < len(v.shares) {
		rate := v.shares[c] * p.capacity
		if rate <= 0 {
			rate = 0.01 * p.capacity // a token share: nothing runs at zero
		}
		v.busyUntilC[c] = max(v.busyUntilC[c], now) + q.Work/rate
		v.pendingC[c] += q.Work
		done = v.busyUntilC[c]
		p.busyUntil = max(p.busyUntil, done)
	} else {
		done = max(p.busyUntil, now) + service
		p.busyUntil = done
	}
	p.busyTime += service
	p.pendingWork += q.Work
	p.queueLen++
	return done
}

// release takes a finished q off the lane.
func (p *provider) release(q model.Query) {
	p.pendingWork = max(p.pendingWork-q.Work, 0)
	if v, c := p.vol, int(q.Consumer); v != nil && c >= 0 && c < len(v.pendingC) {
		v.pendingC[c] = max(v.pendingC[c]-q.Work, 0)
	}
	p.queueLen--
}

// classIntention is a class provider's intention, by behavior.
func classIntention(p *provider, q model.Query) model.Intention {
	if p.behavior == freeRider {
		return 1 // grab everything, deliver nothing
	}
	// Honest providers: a stable per-consumer taste in [-0.2, 0.8), pushed
	// down by current load. Over-claimers keep the taste but deny the load,
	// consistent with their snapshot lie.
	pref := -0.2 + unit(mix64(p.w.sc.Seed^0xA5A5, uint64(p.id), uint64(q.Consumer)))
	if p.behavior == overClaimer {
		return model.Intention(pref)
	}
	load := min(float64(p.queueLen)/loadPenaltyQueue, 1)
	return model.Intention(max(pref-0.8*load, -1))
}

// classBid is a Mariposa-style cost bid: time-to-serve on the advertised
// machine, with a stable per-provider margin.
func classBid(p *provider, q model.Query) float64 {
	cap := p.capacity
	if p.behavior == overClaimer {
		cap *= claimFactor / overClaimSlowdown
	}
	margin := 0.8 + 0.4*unit(mix64(p.w.sc.Seed^0x5A5A, uint64(p.id), 0))
	return q.Work / cap * margin
}

// labConsumer is one simulated consumer: a hash-derived static taste
// blended with an EWMA reputation learned from observed completions — the
// feedback loop that lets satisfaction-based allocation learn which
// providers actually deliver.
type labConsumer struct {
	w   *world
	id  model.ConsumerID
	rep map[model.ProviderID]float64 // EWMA quality in [0, 1]
}

func (c *labConsumer) ConsumerID() model.ConsumerID { return c.id }

func (c *labConsumer) Intention(q model.Query, snap model.ProviderSnapshot) model.Intention {
	pref := -0.2 + unit(mix64(c.w.sc.Seed^0x3C3C, uint64(c.id), uint64(snap.ID)))
	v := pref
	if r, ok := c.rep[snap.ID]; ok {
		// Experience outweighs taste: map quality [0,1] → [-1,1].
		v = 0.3*pref + 0.7*(2*r-1)
	}
	return model.Intention(v).Clamp()
}

// observe folds one execution outcome (response time, or failure) into the
// consumer's reputation for the provider.
func (c *labConsumer) observe(p model.ProviderID, quality float64) {
	if old, ok := c.rep[p]; ok {
		c.rep[p] = old*(1-reputationAlpha) + quality*reputationAlpha
		return
	}
	c.rep[p] = quality
}

// classState is one class's runtime: its flash crowds, cost draw,
// populations, and accumulators.
type classState struct {
	idx  int
	spec ClassSpec

	flashes []FlashSpec // the scenario's flash crowds on this class, in list order
	cost    stats.Dist

	consumers []*labConsumer
	providers []*provider
	cursor    int // round-robin issue cursor over consumers

	issued, mediated, rejected, completed, failed int
	respTimes                                     []float64

	// QoS-station accumulators (runs with a MediationRate only): sheds by
	// reason and the queue wait of every query the station actually served.
	shed         int
	shedByReason map[string]int
	queueWaits   []float64

	trajectory []ClassPoint
}

// gap is the delay until the class's next arrival: a Poisson gap at its
// rate (one ExpFloat64 draw), divided in list order by the factor of each
// flash crowd whose window [At, At+Duration) holds now.
func (cs *classState) gap(now float64, rng *stats.RNG) float64 {
	gap := rng.ExpFloat64() / cs.spec.Rate
	for _, f := range cs.flashes {
		if now >= f.At && now < f.At+f.Duration {
			gap /= f.Factor
		}
	}
	return gap
}

// quality maps an observed response time to [0, 1] against a delay
// target: 1 at instantaneous, 1/2 at the target, → 0 as rt → ∞. A
// non-positive target scores 1, a negative rt counts as 0.
func quality(rt, target float64) float64 {
	if target <= 0 {
		return 1
	}
	return target / (target + max(rt, 0))
}

// nearestRank99 is the nearest-rank 99th percentile of sorted values (0
// for none).
func nearestRank99(sorted []float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(0.99*float64(len(sorted)-1))]
}

// strideOver returns a deterministic stride visiting at most limit of n
// items.
func strideOver(n, limit int) int {
	if n <= limit {
		return 1
	}
	return int(math.Ceil(float64(n) / float64(limit)))
}
