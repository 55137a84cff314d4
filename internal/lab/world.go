package lab

import (
	"math"

	"sbqa/internal/model"
	"sbqa/internal/stats"
	"sbqa/internal/workload"
)

// behavior classifies a provider's honesty.
type behavior uint8

const (
	honest behavior = iota
	freeRider
	overClaimer
	colluder
)

// Adversary distortion constants: over-claimers advertise claimFactor×
// their true speed while actually running at overClaimSlowdown of an honest
// draw; colluders court every cartelStride-th consumer and refuse the rest.
const (
	utilizationHorizon = 30.0 // seconds of backlog that count as "fully busy"
	claimFactor        = 8.0
	overClaimSlowdown  = 0.25
	cartelStride       = 5
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

// labProvider is one simulated provider: a FIFO execution lane with a
// class specialization, a behavior, and lifetime accounting. All methods
// run on the single simulation goroutine — no locking.
type labProvider struct {
	w        *world
	id       model.ProviderID
	class    int
	behavior behavior
	capacity float64 // true work units / second

	online    bool
	busyUntil float64
	pending   int     // queued + executing allocations
	allocs    int     // lifetime allocations won
	busyTime  float64 // accumulated executing seconds (utilization numerator)
}

// caps holds one shared single-class capability slice per class, so a
// million registrations do not allocate a million identical slices.
func (p *labProvider) Capabilities() []int { return p.w.caps[p.class] }

func (p *labProvider) ProviderID() model.ProviderID { return p.id }

func (p *labProvider) Snapshot(now float64) model.ProviderSnapshot {
	backlog := p.busyUntil - now
	if backlog < 0 {
		backlog = 0
	}
	util := backlog / utilizationHorizon
	if util > 1 {
		util = 1
	}
	snap := model.ProviderSnapshot{
		ID:          p.id,
		Utilization: util,
		QueueLen:    p.pending,
		Capacity:    p.capacity,
		PendingWork: backlog * p.capacity,
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

func (p *labProvider) Intention(q model.Query) model.Intention {
	switch p.behavior {
	case freeRider:
		return 1 // grab everything, deliver nothing
	case colluder:
		if uint64(q.Consumer)%cartelStride == 0 {
			return 1 // the cartel's patrons get maximal service
		}
		return -0.9 // and outsiders are refused
	}
	// Honest providers: a stable per-consumer taste in [-0.2, 0.8), pushed
	// down by current load. Over-claimers keep the taste but deny the load,
	// consistent with their snapshot lie.
	pref := -0.2 + unit(mix64(p.w.seed^0xA5A5, uint64(p.id), uint64(q.Consumer)))
	if p.behavior == overClaimer {
		return model.Intention(pref)
	}
	load := float64(p.pending) / loadPenaltyQueue
	if load > 1 {
		load = 1
	}
	v := pref - 0.8*load
	if v < -1 {
		v = -1
	}
	return model.Intention(v)
}

func (p *labProvider) Bid(q model.Query) float64 {
	// Mariposa-style cost bid: time-to-serve on the advertised machine,
	// with a stable per-provider margin.
	cap := p.capacity
	if p.behavior == overClaimer {
		cap *= claimFactor / overClaimSlowdown
	}
	margin := 0.8 + 0.4*unit(mix64(p.w.seed^0x5A5A, uint64(p.id), 0))
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
	pref := -0.2 + unit(mix64(c.w.seed^0x3C3C, uint64(c.id), uint64(snap.ID)))
	v := pref
	if r, ok := c.rep[snap.ID]; ok {
		// Experience outweighs taste: map quality [0,1] → [-1,1].
		v = 0.3*pref + 0.7*(2*r-1)
	}
	if v > 1 {
		v = 1
	}
	if v < -1 {
		v = -1
	}
	return model.Intention(v)
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

// classState is one class's runtime: its arrival stream, cost draw,
// populations, and accumulators.
type classState struct {
	idx  int
	spec ClassSpec

	arrival workload.Arrivals
	cost    stats.Dist

	consumers []*labConsumer
	providers []*labProvider
	cursor    int // round-robin issue cursor over consumers

	issued, mediated, rejected, completed, failed int
	respTimes                                     []float64
	allocsByBehavior                              [4]int

	// QoS-station accumulators (Scenario.QoS runs only): sheds by reason
	// and the queue wait of every query the station actually served.
	shed         int
	shedByReason map[string]int
	queueWaits   []float64

	trajectory []ClassPoint
}

// quality maps an observed response time to [0, 1] against the class's
// delay target: 1 at instantaneous, 1/2 at the target, → 0 as rt → ∞.
func (cs *classState) quality(rt float64) float64 {
	return cs.spec.DelayTarget / (cs.spec.DelayTarget + rt)
}

func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

// strideOver returns a deterministic stride visiting at most limit of n
// items.
func strideOver(n, limit int) int {
	if n <= limit {
		return 1
	}
	return int(math.Ceil(float64(n) / float64(limit)))
}
