package boinc

import (
	"sbqa/internal/intention"
	"sbqa/internal/model"
	"sbqa/internal/reputation"
	"sbqa/internal/stats"
)

// Project is a running consumer: a research project issuing computational
// queries. It implements mediator.Consumer.
type Project struct {
	world *World

	id          model.ConsumerID
	name        string
	arrivalRate float64
	replication int
	quorum      int
	delayTarget float64

	policy intention.ConsumerPolicy
	prefs  []float64 // static preference per volunteer index
	book   *reputation.Book

	online     bool
	leftAt     float64
	belowSince float64    // first instant δs stayed below threshold; -1 = not below
	arrival    *stats.RNG // private stream for inter-arrival draws
	work       *stats.RNG // private stream for work draws

	// failureRate is an EWMA of validation outcomes (1 = every recent
	// query failed redundancy checking); feeds adaptive replication.
	failureRate float64
}

// failureEWMA weights the most recent validation outcome.
const failureEWMA = 0.1

// observeValidation folds one query's validation outcome into the project's
// failure-rate estimate.
func (p *Project) observeValidation(ok bool) {
	outcome := 0.0
	if !ok {
		outcome = 1
	}
	p.failureRate = (1-failureEWMA)*p.failureRate + failureEWMA*outcome
}

// ConsumerID implements mediator.Consumer.
func (p *Project) ConsumerID() model.ConsumerID { return p.id }

// Name returns the project's display name.
func (p *Project) Name() string { return p.name }

// Online reports whether the project is still using the platform.
func (p *Project) Online() bool { return p.online }

// ArrivalRate returns the project's current query arrival rate (queries per
// simulated second).
func (p *Project) ArrivalRate() float64 { return p.arrivalRate }

// Satisfaction returns the project's current δs(c).
func (p *Project) Satisfaction() float64 {
	return p.world.med.Registry().ConsumerSatisfaction(p.id)
}

// Intention implements mediator.Consumer: the project's intention toward
// allocating the query to the described volunteer, per its policy.
func (p *Project) Intention(q model.Query, snap model.ProviderSnapshot) model.Intention {
	pref := 0.0
	if int(snap.ID) < len(p.prefs) {
		pref = p.prefs[snap.ID]
	}
	return p.policy.Intention(intention.ConsumerInputs{
		Preference:    pref,
		Reputation:    p.book.Reputation(snap.ID),
		ExpectedDelay: snap.ExpectedDelay(q.Work),
		DelayTarget:   p.delayTarget,
	})
}

// Volunteer is a running provider: a host donating compute. It implements
// mediator.Provider and executes its queue serially at its capacity.
type Volunteer struct {
	world *World

	id          model.ProviderID
	capacity    float64
	priceFactor float64
	malicious   bool      // returns invalid results (validation substrate)
	prefs       []float64 // static preference per project index

	policy intention.ProviderPolicy

	online     bool
	leftAt     float64
	belowSince float64 // first instant δs stayed below threshold; -1 = not below

	// Execution state: the volunteer processes tasks FIFO at `capacity`
	// work units per second.
	queueLen    int
	pendingWork float64
	busyUntil   float64

	// Resource shares (BOINC semantics): shares[c] is the fraction of this
	// volunteer's capacity devoted to project c, derived from its
	// preferences. When the world enforces shares, each project's work
	// runs at shares[c]·capacity on its own virtual queue — idle shares
	// are wasted, which is the paper's §IV motivating example.
	shares     []float64
	busyUntilC []float64 // per-consumer virtual-queue drain time
	pendingC   []float64 // per-consumer pending work
}

// sharesFromPrefs converts preferences to resource shares: the positive
// part of each preference plus a small floor, normalized to sum to 1 —
// a volunteer devotes most capacity to projects it likes but keeps a token
// share for the rest (as BOINC users typically do).
func sharesFromPrefs(prefs []float64) []float64 {
	shares := make([]float64, len(prefs))
	var sum float64
	for i, p := range prefs {
		v := p
		if v < 0 {
			v = 0
		}
		shares[i] = v + 0.05
		sum += shares[i]
	}
	if sum <= 0 {
		return shares
	}
	for i := range shares {
		shares[i] /= sum
	}
	return shares
}

// DevotedAvailable implements mediator.ShareReporter: the work budget the
// query's consumer may still queue here under this volunteer's shares
// (share·capacity·horizon minus what it already has pending).
func (v *Volunteer) DevotedAvailable(q model.Query) float64 {
	c := int(q.Consumer)
	if c < 0 || c >= len(v.shares) {
		return 0
	}
	budget := v.shares[c] * v.capacity * v.world.horizon
	return budget - v.pendingC[c]
}

// ProviderID implements mediator.Provider.
func (v *Volunteer) ProviderID() model.ProviderID { return v.id }

// Online reports whether the volunteer is still donating resources.
func (v *Volunteer) Online() bool { return v.online }

// Capacity returns the volunteer's speed in work units per second.
func (v *Volunteer) Capacity() float64 { return v.capacity }

// Satisfaction returns the volunteer's current δs(p).
func (v *Volunteer) Satisfaction() float64 {
	return v.world.med.Registry().ProviderSatisfaction(v.id)
}

// Utilization maps the volunteer's backlog drain time onto [0, 1] against
// the world's utilization horizon: 0 = idle, 1 = backlogged by at least the
// horizon.
func (v *Volunteer) Utilization(now float64) float64 {
	backlog := v.busyUntil - now
	if backlog <= 0 {
		return 0
	}
	u := backlog / v.world.horizon
	if u > 1 {
		return 1
	}
	return u
}

// Snapshot implements mediator.Provider.
func (v *Volunteer) Snapshot(now float64) model.ProviderSnapshot {
	return model.ProviderSnapshot{
		ID:          v.id,
		Utilization: v.Utilization(now),
		QueueLen:    v.queueLen,
		Capacity:    v.capacity,
		PendingWork: v.pendingWork,
	}
}

// Intention implements mediator.Provider: the volunteer's intention to
// perform q, per its policy.
func (v *Volunteer) Intention(q model.Query) model.Intention {
	pref := 0.0
	if int(q.Consumer) < len(v.prefs) {
		pref = v.prefs[q.Consumer]
	}
	return v.policy.Intention(intention.ProviderInputs{
		Preference:   pref,
		Utilization:  v.Utilization(v.world.engine.Now()),
		Satisfaction: v.Satisfaction(),
	})
}

// Bid implements mediator.Provider: the price the volunteer asks to perform
// q under the economic baseline — its expected completion delay scaled by a
// private margin. Cost-based, interest-blind, exactly the Mariposa-style
// behaviour the demo contrasts with.
func (v *Volunteer) Bid(q model.Query) float64 {
	delay := (v.pendingWork + q.Work) / v.capacity
	return delay * v.priceFactor
}

// enqueue accepts a dispatched query and schedules its completion. With
// share enforcement, each project's work runs on its own virtual queue at
// the devoted fraction of capacity (BOINC's scheduler); otherwise the
// volunteer runs one FIFO queue at full speed.
func (v *Volunteer) enqueue(q model.Query) {
	now := v.world.engine.Now()
	c := int(q.Consumer)
	var completion float64
	if v.world.cfg.EnforceShares && c >= 0 && c < len(v.shares) {
		rate := v.shares[c] * v.capacity
		if rate <= 0 {
			rate = 0.01 * v.capacity // token share: nothing runs at zero
		}
		if v.busyUntilC[c] < now {
			v.busyUntilC[c] = now
		}
		service := q.Work / rate
		v.busyUntilC[c] += service
		completion = v.busyUntilC[c]
		if completion > v.busyUntil {
			v.busyUntil = completion
		}
		v.pendingC[c] += q.Work
	} else {
		if v.busyUntil < now {
			v.busyUntil = now
		}
		service := q.Work / v.capacity
		v.busyUntil += service
		completion = v.busyUntil
		if c >= 0 && c < len(v.pendingC) {
			v.pendingC[c] += q.Work
		}
	}
	v.pendingWork += q.Work
	v.queueLen++
	v.world.engine.ScheduleAt(completion, func() {
		v.complete(q)
	})
}

// complete finishes a task and ships the result back to the mediator side.
func (v *Volunteer) complete(q model.Query) {
	v.pendingWork -= q.Work
	if v.pendingWork < 0 {
		v.pendingWork = 0
	}
	if c := int(q.Consumer); c >= 0 && c < len(v.pendingC) {
		v.pendingC[c] -= q.Work
		if v.pendingC[c] < 0 {
			v.pendingC[c] = 0
		}
	}
	v.queueLen--
	w := v.world
	valid := !v.malicious
	w.net.Send(w.engine, func() {
		w.resultArrived(q, v.id, valid)
	})
}
