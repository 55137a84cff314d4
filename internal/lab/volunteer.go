package lab

import (
	"context"
	"fmt"

	"sbqa/internal/intention"
	"sbqa/internal/model"
	"sbqa/internal/policy"
	"sbqa/internal/reputation"
	"sbqa/internal/sim"
	"sbqa/internal/stats"
	"sbqa/internal/workload"
)

// VolunteerSpec is the BOINC population preset, the world the paper's demo
// evaluates on: projects (consumers) issue replicated computational queries
// that volunteers (providers) execute. Each project is its own query class
// with its own Poisson stream; every volunteer can serve every project.
// Messages cross a network with U[0.01, 0.05) s one-way latency (an
// interactive technique — SbQA, Economic — pays one more round trip to
// collect intentions or bids), a query completes at the majority quorum of
// valid results, and an invalid result from a malicious volunteer ruins its
// reputation with the project.
type VolunteerSpec struct {
	// Volunteers sizes the provider population (workload.Generate, seeded
	// with Scenario.Seed).
	Volunteers int `json:"volunteers"`

	// Load is the offered load factor ρ. 0 means 0.7.
	Load float64 `json:"load,omitempty"`

	// Malicious is the fraction of volunteers that return invalid results.
	Malicious float64 `json:"malicious,omitempty"`

	// Projects replaces the demo's three projects (SETI@home, proteins@home,
	// Einstein@home) when set.
	Projects []workload.ProjectSpec `json:"projects,omitempty"`

	// Autonomous lets chronically dissatisfied participants leave: a
	// volunteer below δs(p) = 0.35, a project below δs(c) = 0.5. False
	// keeps them captive.
	Autonomous bool `json:"autonomous,omitempty"`
}

// The demo's departure rule, applied to autonomous participants only.
const (
	ProviderLeaveThreshold = 0.35
	ConsumerLeaveThreshold = 0.5
)

// failureEWMA weights a project's most recent validation outcome.
const failureEWMA = 0.1

// VolunteerReport is a volunteer run's outcome beyond the Report's query
// ledger (Workload.Volunteers runs only).
type VolunteerReport struct {
	// Steady-state gauges: means over the last quarter of Trajectory, over
	// the participants online at each sample.
	ConsumerSat     float64 `json:"consumer_sat"`
	ProviderSat     float64 `json:"provider_sat"`
	ProviderSatGini float64 `json:"provider_sat_gini"`
	Utilization     float64 `json:"utilization"`
	UtilizationSD   float64 `json:"utilization_sd"`

	// Contacts is the mean number of providers proposed per mediation —
	// the communication cost KnBest bounds.
	Contacts float64 `json:"contacts"`

	// ProvidersLeft and ConsumersLeft count departures; OnlineAtEnd is the
	// last sample's online volunteers.
	ProvidersLeft int `json:"providers_left"`
	ConsumersLeft int `json:"consumers_left"`
	OnlineAtEnd   int `json:"online_at_end"`

	// Departures lists who left, in time order.
	Departures []Departure `json:"departures,omitempty"`

	// Trajectory samples the gauges every Scenario.SampleEvery.
	Trajectory []VolunteerPoint `json:"trajectory"`
}

// Departure records one participant leaving by dissatisfaction: a
// volunteer (Consumer is model.NoConsumer) or a project (Provider is
// model.NoProvider).
type Departure struct {
	T            float64          `json:"t"`
	Provider     model.ProviderID `json:"provider"`
	Consumer     model.ConsumerID `json:"consumer"`
	Satisfaction float64          `json:"satisfaction"`
}

// VolunteerPoint is one gauge sample over the online population.
type VolunteerPoint struct {
	T               float64 `json:"t"`
	ConsumerSat     float64 `json:"consumer_sat"`
	ProviderSat     float64 `json:"provider_sat"`
	ProviderSatGini float64 `json:"provider_sat_gini"`
	Utilization     float64 `json:"utilization"`
	UtilizationSD   float64 `json:"utilization_sd"`
	OnlineProviders int     `json:"online_providers"`
	OnlineConsumers int     `json:"online_consumers"`
}

// volunteering is a volunteer run's state: the population, the network,
// the queries awaiting their quorum, and the ledgers finish reads.
type volunteering struct {
	projects []*project
	vols     []*volunteer
	net      *sim.Network
	pending  map[model.QueryID]*quorumState

	meanWork    float64
	interactive bool // the technique pays a round trip before dispatch
	// enforceShares runs BOINC's own scheduling under the share-based
	// technique: each project's work runs at its share of a volunteer's
	// capacity, so idle shares are wasted (the paper's §IV example).
	enforceShares bool

	// warmup is the time before departure decisions start (20% of the
	// run), letting the adaptive ω settle; grace is how long δs must stay
	// below its threshold before the participant leaves (10%): Definition 2
	// reads 0 the instant a provider's last win slides out of its window,
	// so participants leave on chronic dissatisfaction, not on a flicker.
	// horizon is the backlog drain time read as utilization 1: 4× the
	// mean service demand.
	warmup, grace, horizon float64
	// minInteractions is how much of its window a participant needs before
	// it judges the system (no cold-start flight).
	minInteractions int

	// Study seams, set before the first event: a per-issue replication
	// rule (given the project's static factor, its δs and its
	// validation-failure rate) and hooks on every issued and every
	// validated query.
	replication func(base int, sat, failRate float64) int
	onIssue     func(model.Query)
	onComplete  func(q model.Query, responseTime float64)

	responseTimes *stats.Summary
	contacts      int
	out           *VolunteerReport
}

// quorumState tracks one dispatched query until its quorum of valid results
// arrives, or every replica has answered without reaching it.
type quorumState struct {
	project                            *project
	quorum, expected, valid, responses int
	issuedAt                           float64
}

// buildVolunteers generates the preset's population and registers it.
func (w *world) buildVolunteers() error {
	spec := w.sc.Workload.Volunteers
	cfg := workload.DefaultConfig(spec.Volunteers, w.sc.Seed)
	cfg.LoadFactor = spec.Load
	cfg.MaliciousFraction = spec.Malicious
	if spec.Projects != nil {
		cfg.Projects = spec.Projects
	}
	pop, err := workload.Generate(cfg)
	if err != nil {
		return fmt.Errorf("lab: %w", err)
	}
	probe, err := w.sc.Policy.Build(0)
	if err != nil {
		return err
	}
	ia, ok := probe.(interface{ Interactive() bool })

	// Offset the world's streams from the population generator's so the
	// two stay independent under one seed.
	root := stats.NewRNG(w.sc.Seed ^ 0x5b0a_c0de_0001)
	d := w.sc.Duration
	vp := &volunteering{
		net:             sim.NewNetwork(stats.Uniform{Lo: 0.01, Hi: 0.05}, root.Split()),
		pending:         make(map[model.QueryID]*quorumState),
		meanWork:        pop.WorkDist.Mean(),
		interactive:     ok && ia.Interactive(),
		enforceShares:   w.sc.Policy.Kind == policy.ShareBased,
		warmup:          0.2 * d,
		grace:           0.1 * d,
		horizon:         4 * pop.WorkDist.Mean(),
		minInteractions: w.sc.Window / 2,
		responseTimes:   stats.NewSummary(),
		out:             &VolunteerReport{},
	}
	w.vol = vp
	for _, gv := range pop.Volunteers {
		v := &volunteer{
			w:           w,
			id:          model.ProviderID(gv.Index),
			capacity:    gv.Capacity,
			priceFactor: gv.PriceFactor,
			malicious:   gv.Malicious,
			prefs:       gv.ProjectPref,
			policy:      intention.PreferenceProvider{},
			online:      true,
			belowSince:  -1,
			shares:      sharesFromPrefs(gv.ProjectPref),
			busyUntilC:  make([]float64, len(pop.Projects)),
			pendingC:    make([]float64, len(pop.Projects)),
		}
		vp.vols = append(vp.vols, v)
		w.live.RegisterProvider(v)
	}
	for _, gp := range pop.Projects {
		p := &project{
			w:           w,
			id:          model.ConsumerID(gp.Index),
			name:        gp.Name,
			arrivalRate: gp.ArrivalRate,
			replication: gp.Replication,
			delayTarget: gp.DelayTarget,
			policy:      intention.ReputationBlendConsumer{Gamma: 0.7},
			prefs:       gp.VolunteerPref,
			quorum:      gp.Quorum,
			book:        reputation.NewBook(reputation.DefaultAlpha),
			online:      true,
			belowSince:  -1,
			arrival:     root.Split(),
			work:        root.Split(),
		}
		vp.projects = append(vp.projects, p)
		w.live.RegisterConsumer(p)
	}
	return nil
}

// scheduleProjectArrival books the project's next query issue.
func (w *world) scheduleProjectArrival(p *project) {
	if !p.online || p.arrivalRate <= 0 {
		return
	}
	gap := workload.Poisson{Rate: p.arrivalRate}.Next(w.eng.Now(), p.arrival)
	w.eng.Schedule(gap, func() {
		if !p.online {
			return
		}
		w.issueProject(p)
		w.scheduleProjectArrival(p)
	})
}

// setArrivalRate changes a project's arrival rate mid-run (0 stops it
// issuing, as when a campaign ends); it takes effect at the next booking.
func (w *world) setArrivalRate(p *project, rate float64) {
	restart := p.arrivalRate <= 0 && rate > 0 && p.online
	p.arrivalRate = rate
	if restart {
		w.scheduleProjectArrival(p)
	}
}

// issueProject creates one query and sends it to the mediator.
func (w *world) issueProject(p *project) {
	vp := w.vol
	n := p.replication
	if vp.replication != nil {
		n = max(vp.replication(p.replication, p.satisfaction(), p.failureRate), 1)
	}
	q := model.Query{
		Consumer: p.id,
		Class:    int(p.id),
		N:        n,
		Work:     p.work.ExpFloat64() * vp.meanWork,
		IssuedAt: w.eng.Now(),
	}
	if q.Work <= 0 {
		q.Work = vp.meanWork
	}
	if vp.onIssue != nil {
		vp.onIssue(q)
	}
	vp.net.Send(w.eng, func() { w.mediateProject(q) })
}

// mediateProject runs q through the engine and dispatches its replicas.
func (w *world) mediateProject(q model.Query) {
	vp := w.vol
	w.report.Issued++
	a, err := w.live.Mediate(context.Background(), q)
	if err != nil {
		w.report.Rejected++
		w.afterMediation(q, nil)
		return
	}
	w.report.Mediated++
	vp.contacts += len(a.Proposed)
	replica := issuedAt(a.Query, q.IssuedAt)

	extra := 0.0
	if vp.interactive {
		extra = vp.net.RoundTrip()
	}
	st := &quorumState{project: w.projectByID(q.Consumer), issuedAt: q.IssuedAt, expected: len(a.Selected)}
	// The static quorum caps how many matching results are required;
	// adaptive replication may dispatch more replicas, never need more.
	st.quorum = q.N
	if st.project != nil && st.project.quorum < st.quorum {
		st.quorum = st.project.quorum
	}
	st.quorum = max(min(st.quorum, st.expected), 1)
	vp.pending[replica.ID] = st
	for _, pid := range a.Selected {
		if v := w.volunteerByID(pid); v != nil {
			w.eng.Schedule(extra+vp.net.Delay(), func() { v.enqueue(replica) })
		}
	}
	w.afterMediation(q, a)
}

// issuedAt returns q as issued at t: the engine stamps a query at its
// mediation, and response times run from the issue.
func issuedAt(q model.Query, t float64) model.Query {
	q.IssuedAt = t
	return q
}

// resultArrived books one result reaching its project. An invalid result
// ruins the sender's reputation and does not count toward the quorum; the
// query completes at the quorum-th valid result and fails once every
// replica has answered without reaching it.
func (w *world) resultArrived(q model.Query, from model.ProviderID, valid bool) {
	vp := w.vol
	st, ok := vp.pending[q.ID]
	if !ok {
		return
	}
	latency := w.eng.Now() - st.issuedAt
	if st.project != nil {
		quality := 0.0
		if valid {
			quality = reputation.QualityFromLatency(latency, st.project.delayTarget)
		}
		st.project.book.Observe(from, quality)
	}
	st.responses++
	if valid {
		st.valid++
	}
	switch {
	case st.valid >= st.quorum:
		vp.responseTimes.Add(latency)
		w.report.Completed++
		delete(vp.pending, q.ID)
		if st.project != nil {
			st.project.observeValidation(true)
		}
		if vp.onComplete != nil {
			vp.onComplete(q, latency)
		}
	case st.responses >= st.expected:
		w.report.Failed++
		delete(vp.pending, q.ID)
		if st.project != nil {
			st.project.observeValidation(false)
		}
	}
}

// afterMediation applies the departure rule to everyone whose satisfaction
// window the mediation just changed.
func (w *world) afterMediation(q model.Query, a *model.Allocation) {
	if !w.sc.Workload.Volunteers.Autonomous || w.eng.Now() < w.vol.warmup {
		return
	}
	if p := w.projectByID(q.Consumer); p != nil && p.online {
		w.checkConsumerDeparture(p)
	}
	if a == nil {
		return
	}
	for _, pid := range a.Proposed {
		if v := w.volunteerByID(pid); v != nil && v.online {
			w.checkProviderDeparture(v)
		}
	}
}

// chronicallyBelow reports whether a participant whose window holds n
// interactions and whose δs reads sat against threshold has been below it
// for the grace period, tracking the first instant in *since.
func (w *world) chronicallyBelow(n int, sat, threshold float64, since *float64) bool {
	if n < w.vol.minInteractions || sat >= threshold {
		*since = -1
		return false
	}
	now := w.eng.Now()
	if *since < 0 {
		*since = now
		return false
	}
	return now-*since >= w.vol.grace
}

func (w *world) checkProviderDeparture(v *volunteer) {
	tr := w.live.Registry().Provider(v.id)
	if sat := tr.Satisfaction(); w.chronicallyBelow(tr.Interactions(), sat, ProviderLeaveThreshold, &v.belowSince) {
		// Its queued tasks still finish; it receives no new queries.
		v.online = false
		w.live.UnregisterWorker(v.id)
		w.vol.depart(Departure{T: w.eng.Now(), Provider: v.id, Consumer: model.NoConsumer, Satisfaction: sat})
	}
}

func (w *world) checkConsumerDeparture(p *project) {
	tr := w.live.Registry().Consumer(p.id)
	if sat := tr.Satisfaction(); w.chronicallyBelow(tr.Interactions(), sat, ConsumerLeaveThreshold, &p.belowSince) {
		p.online = false
		w.live.Directory().UnregisterConsumer(p.id)
		w.live.Registry().ForgetConsumer(p.id)
		w.vol.depart(Departure{T: w.eng.Now(), Provider: model.NoProvider, Consumer: p.id, Satisfaction: sat})
	}
}

func (vp *volunteering) depart(d Departure) {
	vp.out.Departures = append(vp.out.Departures, d)
	if d.Provider != model.NoProvider {
		vp.out.ProvidersLeft++
	} else {
		vp.out.ConsumersLeft++
	}
}

// sampleVolunteers records one gauge sample over the online population and
// runs the periodic departure sweep (participants no longer proposed any
// query would otherwise never be judged again).
func (w *world) sampleVolunteers() {
	vp := w.vol
	now := w.eng.Now()
	autonomy := w.sc.Workload.Volunteers.Autonomous && now >= vp.warmup
	var consumerSats, providerSats, utils []float64
	for _, p := range vp.projects {
		if autonomy && p.online {
			w.checkConsumerDeparture(p)
		}
		if p.online {
			consumerSats = append(consumerSats, p.satisfaction())
		}
	}
	for _, v := range vp.vols {
		if autonomy && v.online {
			w.checkProviderDeparture(v)
		}
		if v.online {
			providerSats = append(providerSats, v.satisfaction())
			utils = append(utils, v.utilization(now))
		}
	}
	vp.out.Trajectory = append(vp.out.Trajectory, VolunteerPoint{
		T:               now,
		ConsumerSat:     stats.MeanOf(consumerSats),
		ProviderSat:     stats.MeanOf(providerSats),
		ProviderSatGini: stats.Gini(providerSats),
		Utilization:     stats.MeanOf(utils),
		UtilizationSD:   stats.StdDevOf(utils),
		OnlineProviders: len(providerSats),
		OnlineConsumers: len(consumerSats),
	})
}

// finishVolunteers condenses the run: the ledger into the Report, the
// gauges' last quarter into the steady-state means.
func (w *world) finishVolunteers() *Report {
	vp, r := w.vol, w.report
	r.Providers, r.Consumers = len(vp.vols), len(vp.projects)
	r.Participants = r.Providers + r.Consumers
	r.InFlight = len(vp.pending)
	r.MeanResponse = vp.responseTimes.Mean()
	r.P99Response = vp.responseTimes.Percentile(99)
	out := vp.out
	tail := func(v func(VolunteerPoint) float64) float64 { return tailMean(out.Trajectory, 0.25, v) }
	out.ConsumerSat = tail(func(p VolunteerPoint) float64 { return p.ConsumerSat })
	out.ProviderSat = tail(func(p VolunteerPoint) float64 { return p.ProviderSat })
	out.ProviderSatGini = tail(func(p VolunteerPoint) float64 { return p.ProviderSatGini })
	out.Utilization = tail(func(p VolunteerPoint) float64 { return p.Utilization })
	out.UtilizationSD = tail(func(p VolunteerPoint) float64 { return p.UtilizationSD })
	if n := len(out.Trajectory); n > 0 {
		out.OnlineAtEnd = out.Trajectory[n-1].OnlineProviders
	}
	if r.Mediated > 0 {
		out.Contacts = float64(vp.contacts) / float64(r.Mediated)
	}
	r.Volunteers = out
	return r
}

// tailMean is the mean of one gauge over the last fraction frac of the
// samples (at least the last one): the steady-state estimate.
func tailMean(pts []VolunteerPoint, frac float64, v func(VolunteerPoint) float64) float64 {
	n := len(pts)
	if n == 0 {
		return 0
	}
	start := min(n-int(float64(n)*frac), n-1)
	var sum float64
	for _, p := range pts[start:] {
		sum += v(p)
	}
	return sum / float64(n-start)
}

func (w *world) projectByID(id model.ConsumerID) *project {
	if int(id) < 0 || int(id) >= len(w.vol.projects) {
		return nil
	}
	return w.vol.projects[id]
}

func (w *world) volunteerByID(id model.ProviderID) *volunteer {
	if int(id) < 0 || int(id) >= len(w.vol.vols) {
		return nil
	}
	return w.vol.vols[id]
}

// project is a BOINC project: a consumer issuing computational queries.
type project struct {
	w *world

	id          model.ConsumerID
	name        string
	arrivalRate float64
	replication int
	quorum      int
	delayTarget float64

	policy intention.ConsumerPolicy
	prefs  []float64 // static preference per volunteer
	book   *reputation.Book

	online     bool
	belowSince float64    // first instant δs stayed below threshold; -1 = not below
	arrival    *stats.RNG // private inter-arrival stream
	work       *stats.RNG // private work stream

	// failureRate is an EWMA of validation outcomes (1 = every recent
	// query failed its quorum); adaptive replication reads it.
	failureRate float64
}

func (p *project) observeValidation(ok bool) {
	outcome := 0.0
	if !ok {
		outcome = 1
	}
	p.failureRate = (1-failureEWMA)*p.failureRate + failureEWMA*outcome
}

func (p *project) ConsumerID() model.ConsumerID { return p.id }

func (p *project) satisfaction() float64 { return p.w.live.ConsumerSatisfaction(p.id) }

// Intention is the project's intention toward allocating q to the
// described volunteer, per its policy.
func (p *project) Intention(q model.Query, snap model.ProviderSnapshot) model.Intention {
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

// volunteer is a BOINC host donating compute: it executes its queue
// serially at its capacity (or, under enforced shares, each project's work
// on its own lane at that project's share of the capacity).
type volunteer struct {
	w *world

	id          model.ProviderID
	capacity    float64
	priceFactor float64
	malicious   bool      // returns invalid results
	prefs       []float64 // static preference per project

	policy intention.ProviderPolicy

	online     bool
	belowSince float64

	queueLen    int
	pendingWork float64
	busyUntil   float64

	// shares[c] is the fraction of capacity devoted to project c, derived
	// from the preferences; busyUntilC and pendingC are the per-project
	// lanes' drain times and pending work.
	shares     []float64
	busyUntilC []float64
	pendingC   []float64
}

// sharesFromPrefs converts preferences to resource shares: the positive
// part of each preference plus a 0.05 floor, normalized to sum to 1 — most
// capacity goes to liked projects, a token share to the rest.
func sharesFromPrefs(prefs []float64) []float64 {
	shares := make([]float64, len(prefs))
	var sum float64
	for i, p := range prefs {
		shares[i] = max(p, 0) + 0.05
		sum += shares[i]
	}
	for i := range shares {
		shares[i] /= sum
	}
	return shares
}

// setPrefs overrides the volunteer's per-project preferences (clamped to
// [-1, 1]) and re-derives its shares.
func (v *volunteer) setPrefs(prefs []float64) {
	v.prefs = clampPrefs(prefs)
	v.shares = sharesFromPrefs(v.prefs)
}

func clampPrefs(prefs []float64) []float64 {
	out := make([]float64, len(prefs))
	for i, v := range prefs {
		out[i] = min(max(v, -1), 1)
	}
	return out
}

// DevotedAvailable implements mediator.ShareReporter: the work q's project
// may still queue here under the volunteer's shares.
func (v *volunteer) DevotedAvailable(q model.Query) float64 {
	c := int(q.Consumer)
	if c < 0 || c >= len(v.shares) {
		return 0
	}
	return v.shares[c]*v.capacity*v.w.vol.horizon - v.pendingC[c]
}

func (v *volunteer) ProviderID() model.ProviderID { return v.id }

func (v *volunteer) satisfaction() float64 { return v.w.live.ProviderSatisfaction(v.id) }

// utilization maps the backlog's drain time onto [0, 1] against the
// horizon.
func (v *volunteer) utilization(now float64) float64 {
	backlog := v.busyUntil - now
	if backlog <= 0 {
		return 0
	}
	return min(backlog/v.w.vol.horizon, 1)
}

func (v *volunteer) Snapshot(now float64) model.ProviderSnapshot {
	return model.ProviderSnapshot{
		ID:          v.id,
		Utilization: v.utilization(now),
		QueueLen:    v.queueLen,
		Capacity:    v.capacity,
		PendingWork: v.pendingWork,
	}
}

func (v *volunteer) Intention(q model.Query) model.Intention {
	pref := 0.0
	if int(q.Consumer) < len(v.prefs) {
		pref = v.prefs[q.Consumer]
	}
	return v.policy.Intention(intention.ProviderInputs{
		Preference:   pref,
		Utilization:  v.utilization(v.w.eng.Now()),
		Satisfaction: v.satisfaction(),
	})
}

// Bid is the economic baseline's price: the expected completion delay
// scaled by a private margin — cost-based and interest-blind.
func (v *volunteer) Bid(q model.Query) float64 {
	return (v.pendingWork + q.Work) / v.capacity * v.priceFactor
}

// enqueue accepts a dispatched replica and books its completion.
func (v *volunteer) enqueue(q model.Query) {
	w := v.w
	now := w.eng.Now()
	c := int(q.Consumer)
	var completion float64
	if w.vol.enforceShares && c >= 0 && c < len(v.shares) {
		rate := v.shares[c] * v.capacity
		if rate <= 0 {
			rate = 0.01 * v.capacity // a token share: nothing runs at zero
		}
		v.busyUntilC[c] = max(v.busyUntilC[c], now) + q.Work/rate
		completion = v.busyUntilC[c]
		v.busyUntil = max(v.busyUntil, completion)
		v.pendingC[c] += q.Work
	} else {
		v.busyUntil = max(v.busyUntil, now) + q.Work/v.capacity
		completion = v.busyUntil
		if c >= 0 && c < len(v.pendingC) {
			v.pendingC[c] += q.Work
		}
	}
	v.pendingWork += q.Work
	v.queueLen++
	w.eng.ScheduleAt(completion, func() { v.complete(q) })
}

// complete finishes a replica and ships the result back.
func (v *volunteer) complete(q model.Query) {
	v.pendingWork = max(v.pendingWork-q.Work, 0)
	if c := int(q.Consumer); c >= 0 && c < len(v.pendingC) {
		v.pendingC[c] = max(v.pendingC[c]-q.Work, 0)
	}
	v.queueLen--
	w := v.w
	valid := !v.malicious
	w.vol.net.Send(w.eng, func() { w.resultArrived(q, v.id, valid) })
}
