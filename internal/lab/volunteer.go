package lab

import (
	"context"

	"sbqa/internal/model"
	"sbqa/internal/policy"
	"sbqa/internal/sim"
	"sbqa/internal/stats"
)

// VolunteerSpec is the BOINC population preset, the world the paper's demo
// evaluates on: projects (consumers) issue replicated computational queries
// that volunteers (providers) execute. Each project is its own query class
// with its own Poisson stream; every volunteer can serve every project.
// Volunteers draw capacities U[0.5, 1.5) work/s and query work is
// Exp(mean 10).
// Messages cross a network with U[0.01, 0.05) s one-way latency (an
// interactive technique — SbQA, Economic — pays one more round trip to
// collect intentions or bids), a query completes at the majority quorum of
// valid results, and an invalid result from a malicious volunteer ruins its
// reputation with the project.
type VolunteerSpec struct {
	// Volunteers sizes the provider population.
	Volunteers int `json:"volunteers"`

	// Load is the offered load factor ρ: arrivals are sized so that
	// Σ rate·E[work]·replication = ρ·Σ capacity. 0 means 0.7.
	Load float64 `json:"load,omitempty"`

	// Malicious is the fraction of volunteers that return invalid results.
	Malicious float64 `json:"malicious,omitempty"`

	// Projects replaces the demo's three projects (SETI@home, proteins@home,
	// Einstein@home) when set.
	Projects []ProjectSpec `json:"projects,omitempty"`

	// Autonomous lets chronically dissatisfied participants leave: a
	// volunteer below δs(p) = 0.35, a project below δs(c) = 0.5. False
	// keeps them captive.
	Autonomous bool `json:"autonomous,omitempty"`
}

// ProjectSpec declares one project of the volunteer preset.
type ProjectSpec struct {
	// Name labels the project in tables ("SETI@home", ...).
	Name string

	// Popularity drives the volunteers' preference draws.
	Popularity Popularity

	// ArrivalShare is this project's fraction of the total query arrival
	// rate; shares are normalized, so they need not sum to 1, and a
	// non-positive one counts as 1.
	ArrivalShare float64

	// Replication is q.n — how many results the project requires per
	// query (BOINC replicates tasks to validate volunteer results); its
	// majority is the quorum of valid results that validates a query.
	// Below 1 means 1.
	Replication int

	// DelayTarget is the response time (seconds) the project considers
	// good; it feeds response-time-seeking intention policies. 0 means 30.
	DelayTarget float64
}

// Popularity classifies how much the volunteers like a project. The demo
// stages three: SETI@home is popular ("the majority of providers want to
// collaborate"), proteins@home normal ("great number, but not most") and
// Einstein@home unpopular ("most providers desire to collaborate ... with
// a small fraction of computational resources").
type Popularity int

// Popularity classes, in decreasing affection.
const (
	Popular Popularity = iota
	Normal
	Unpopular
)

// affinity is the relative probability that a volunteer joined the system
// for a project of this class.
func (p Popularity) affinity() float64 {
	switch p {
	case Popular:
		return 0.6
	case Normal:
		return 0.3
	default:
		return 0.1
	}
}

// generalistShare is the fraction of volunteers with no favourite project.
const generalistShare = 0.15

// volunteerWork is the mean of the preset's exponential query work.
const volunteerWork = 10.0

// DefaultProjects returns the demo's three-project cast.
func DefaultProjects() []ProjectSpec {
	return []ProjectSpec{
		{Name: "SETI@home", Popularity: Popular, ArrivalShare: 0.5, Replication: 2, DelayTarget: 30},
		{Name: "proteins@home", Popularity: Normal, ArrivalShare: 0.3, Replication: 2, DelayTarget: 30},
		{Name: "Einstein@home", Popularity: Unpopular, ArrivalShare: 0.2, Replication: 2, DelayTarget: 30},
	}
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
	// Steady-state gauges: means over the last quarter of the Report's
	// Trajectory, over the participants online at each sample.
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

// volunteering is the volunteer preset's mechanics: the network, the
// queries awaiting their quorum, and the study seams.
type volunteering struct {
	net     *sim.Network
	pending map[model.QueryID]*quorumState

	interactive bool // the technique pays a round trip before dispatch

	// grace is how long δs must stay below its threshold before the
	// participant leaves (10% of the run): Definition 2 reads 0 the instant
	// a provider's last win slides out of its window, so participants leave
	// on chronic dissatisfaction, not on a flicker. minInteractions is how
	// much of its window a participant needs before it judges the system
	// (no cold-start flight).
	grace           float64
	minInteractions int

	// Study seams, set before the first event: a per-issue replication
	// rule (given the project's static factor, its δs and its
	// validation-failure rate) and hooks on every issued and every
	// validated query.
	replication func(base int, sat, failRate float64) int
	onIssue     func(model.Query)
	onComplete  func(q model.Query, responseTime float64)
}

// quorumState tracks one dispatched query until its quorum of valid results
// arrives, or every replica has answered without reaching it.
type quorumState struct {
	project                            *project
	quorum, expected, valid, responses int
}

// buildVolunteers draws the preset's population straight into the world
// and registers it. Four streams split from Scenario.Seed, in this order,
// draw the volunteers' capacities, their preferences, the projects'
// preferences and the volunteers' prices and malice, so a draw added to one
// concern cannot shift another.
func (w *world) buildVolunteers() error {
	spec := w.sc.Workload.Volunteers
	projects := spec.Projects
	if len(projects) == 0 {
		projects = DefaultProjects()
	}
	load := spec.Load
	if load <= 0 {
		load = 0.7
	}
	probe, err := w.sc.Policy.Build(0)
	if err != nil {
		return err
	}
	ia, ok := probe.(interface{ Interactive() bool })

	// Offset the world's streams from the population's so the two stay
	// independent under one seed.
	root := stats.NewRNG(w.sc.Seed ^ 0x5b0a_c0de_0001)
	d := w.sc.Duration
	w.vol = &volunteering{
		net:             sim.NewNetwork(stats.Uniform{Lo: 0.01, Hi: 0.05}, root.Split()),
		pending:         make(map[model.QueryID]*quorumState),
		interactive:     ok && ia.Interactive(),
		grace:           0.1 * d,
		minInteractions: w.sc.Window / 2,
	}
	// Every volunteer serves every project: one capability entry, nil,
	// files them all as universal. Utilization 1 is a backlog of 4× the
	// mean service demand; departures start after the first 20% of the
	// run, letting the adaptive ω settle.
	w.caps = [][]int{nil}
	w.intention, w.bid = volunteerIntention, volunteerBid
	w.horizon, w.onlineOnly = 4*volunteerWork, true
	w.p99 = func(sorted []float64) float64 { return stats.Percentile(sorted, 99) }
	w.autonomous, w.warmup = spec.Autonomous, 0.2*d
	w.gauges = &VolunteerReport{}
	w.report.Volunteers = w.gauges
	enforceShares := w.sc.Policy.Kind == policy.ShareBased

	gen := stats.NewRNG(w.sc.Seed)
	capRNG, prefRNG, projectPrefRNG, priceRNG := gen.Split(), gen.Split(), gen.Split(), gen.Split()
	var affinitySum float64
	for _, ps := range projects {
		affinitySum += ps.Popularity.affinity()
	}
	var totalCap, minCap, maxCap float64
	for i := range spec.Volunteers {
		p := &provider{
			w:        w,
			id:       model.ProviderID(i),
			online:   true,
			capacity: capRNG.Range(0.5, 1.5),
			vol: &volunteer{
				prefs:       volunteerPrefs(projects, affinitySum, prefRNG),
				policy:      preferenceProvider,
				priceFactor: priceRNG.Range(0.8, 1.2),
				belowSince:  -1,
			},
		}
		if spec.Malicious > 0 && priceRNG.Bool(spec.Malicious) {
			p.behavior = malicious
		}
		if enforceShares {
			// BOINC's own scheduling under the share-based technique: each
			// project's work runs at its share of the volunteer's capacity,
			// so idle shares are wasted (the paper's §IV example).
			p.vol.shares = sharesFromPrefs(p.vol.prefs)
			p.vol.busyUntilC = make([]float64, len(projects))
			p.vol.pendingC = make([]float64, len(projects))
		}
		totalCap += p.capacity
		if i == 0 || p.capacity < minCap {
			minCap = p.capacity
		}
		maxCap = max(maxCap, p.capacity)
		w.providers = append(w.providers, p)
		w.live.RegisterProvider(p)
	}

	// Arrival rates: normalize the shares (a non-positive one counts as 1),
	// then size the total so that the offered work, replicas included, is
	// ρ·Σ capacity.
	shares := make([]float64, len(projects))
	var shareSum, demand float64
	for i, ps := range projects {
		shares[i] = ps.ArrivalShare
		if shares[i] <= 0 {
			shares[i] = 1
		}
		shareSum += shares[i]
	}
	for i, ps := range projects {
		shares[i] /= shareSum
		demand += shares[i] * volunteerWork * float64(max(ps.Replication, 1))
	}
	totalRate := load * totalCap / demand

	for i, ps := range projects {
		repl := max(ps.Replication, 1)
		p := &project{
			w:           w,
			id:          model.ConsumerID(i),
			name:        ps.Name,
			arrivalRate: totalRate * shares[i],
			replication: repl,
			delayTarget: ps.DelayTarget,
			policy:      reputationBlend(0.7),
			prefs:       make([]float64, len(w.providers)),
			quorum:      repl/2 + 1,
			book:        newBook(defaultAlpha),
			online:      true,
			belowSince:  -1,
			arrival:     root.Split(),
			work:        root.Split(),
		}
		if p.delayTarget <= 0 {
			p.delayTarget = 30
		}
		// A project prefers fast hosts (they return results sooner): its
		// static preference maps the volunteer's relative capacity onto
		// [0.05, 0.9] plus mild noise, so projects do not all agree and
		// object to no one — objections are for bad reputations.
		for vi, v := range w.providers {
			rel := 0.5
			if maxCap > minCap {
				rel = (v.capacity - minCap) / (maxCap - minCap)
			}
			p.prefs[vi] = clamp(0.05+0.85*rel+projectPrefRNG.Range(-0.15, 0.15), -1, 1)
		}
		w.projects = append(w.projects, p)
		w.live.RegisterConsumer(p)
	}
	return nil
}

// volunteerPrefs draws one volunteer's preference per project. Most
// volunteers are fans of one project, drawn by popularity affinity: they
// like it U[0.5, 1) and dislike donating cycles to the others U[-1, -0.4).
// The generalistShare rest are happy to serve anyone, U[-0.1, 0.6) each.
// This is what makes interest-blind allocation costly: a load balancer
// keeps feeding fans the projects they dislike.
func volunteerPrefs(projects []ProjectSpec, affinitySum float64, rng *stats.RNG) []float64 {
	prefs := make([]float64, len(projects))
	if rng.Bool(generalistShare) {
		for i := range prefs {
			prefs[i] = rng.Range(-0.1, 0.6)
		}
		return prefs
	}
	u := rng.Float64() * affinitySum
	fav := 0
	for i, ps := range projects {
		a := ps.Popularity.affinity()
		if u < a {
			fav = i
			break
		}
		u -= a
	}
	for i := range prefs {
		if i == fav {
			prefs[i] = rng.Range(0.5, 1)
		} else {
			prefs[i] = rng.Range(-1, -0.4)
		}
	}
	return prefs
}

// scheduleProjectArrival books the project's next query issue.
func (w *world) scheduleProjectArrival(p *project) {
	if !p.online || p.arrivalRate <= 0 {
		return
	}
	w.eng.Schedule(p.arrival.ExpFloat64()/p.arrivalRate, func() {
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
		Work:     p.work.ExpFloat64() * volunteerWork,
		IssuedAt: w.eng.Now(),
	}
	if q.Work <= 0 {
		q.Work = volunteerWork
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
	w.gauges.Contacts += float64(len(a.Proposed))
	replica := issuedAt(a.Query, q.IssuedAt)

	extra := 0.0
	if vp.interactive {
		extra = vp.net.RoundTrip()
	}
	st := &quorumState{project: w.projects[q.Consumer], expected: len(a.Selected)}
	// The static quorum caps how many matching results are required;
	// adaptive replication may dispatch more replicas, never need more.
	st.quorum = max(min(q.N, st.project.quorum, st.expected), 1)
	vp.pending[replica.ID] = st
	w.inFlight++
	for _, pid := range a.Selected {
		p := w.providers[pid]
		p.allocs++
		w.eng.Schedule(extra+vp.net.Delay(), func() { w.serve(p, replica) })
	}
	w.afterMediation(q, a)
}

// serve runs a dispatched replica on p's lane and ships the result back.
func (w *world) serve(p *provider, q model.Query) {
	w.eng.ScheduleAt(p.enqueue(q), func() {
		p.release(q)
		valid := p.behavior != malicious
		w.vol.net.Send(w.eng, func() { w.resultArrived(q, p.id, valid) })
	})
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
	latency := w.eng.Now() - q.IssuedAt
	outcome := 0.0
	if valid {
		outcome = quality(latency, st.project.delayTarget)
	}
	st.project.book.observe(from, outcome)
	st.responses++
	if valid {
		st.valid++
	}
	switch {
	case st.valid >= st.quorum:
		w.respTimes = append(w.respTimes, latency)
		w.report.Completed++
		w.inFlight--
		delete(vp.pending, q.ID)
		st.project.observeValidation(true)
		if vp.onComplete != nil {
			vp.onComplete(q, latency)
		}
	case st.responses >= st.expected:
		w.report.Failed++
		w.inFlight--
		delete(vp.pending, q.ID)
		st.project.observeValidation(false)
	}
}

// afterMediation applies the departure rule to everyone whose satisfaction
// window the mediation just changed.
func (w *world) afterMediation(q model.Query, a *model.Allocation) {
	if !w.autonomous || w.eng.Now() < w.warmup {
		return
	}
	if p := w.projects[q.Consumer]; p.online {
		w.checkConsumerDeparture(p)
	}
	if a == nil {
		return
	}
	for _, pid := range a.Proposed {
		if p := w.providers[pid]; p.online {
			w.checkProviderDeparture(p)
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

func (w *world) checkProviderDeparture(p *provider) {
	tr := w.live.Registry().Provider(p.id)
	if sat := tr.Satisfaction(); w.chronicallyBelow(tr.Interactions(), sat, ProviderLeaveThreshold, &p.vol.belowSince) {
		w.depart(p) // its queued tasks still finish; it receives no new queries
		w.logDeparture(Departure{T: w.eng.Now(), Provider: p.id, Consumer: model.NoConsumer, Satisfaction: sat})
	}
}

func (w *world) checkConsumerDeparture(p *project) {
	tr := w.live.Registry().Consumer(p.id)
	if sat := tr.Satisfaction(); w.chronicallyBelow(tr.Interactions(), sat, ConsumerLeaveThreshold, &p.belowSince) {
		p.online = false
		w.live.Directory().UnregisterConsumer(p.id)
		w.live.Registry().ForgetConsumer(p.id)
		w.logDeparture(Departure{T: w.eng.Now(), Provider: model.NoProvider, Consumer: p.id, Satisfaction: sat})
	}
}

func (w *world) logDeparture(d Departure) {
	g := w.gauges
	g.Departures = append(g.Departures, d)
	if d.Provider != model.NoProvider {
		g.ProvidersLeft++
	} else {
		g.ConsumersLeft++
	}
}

// judgeAll applies the departure rule to every online participant: the
// periodic sweep, since participants no longer proposed any query would
// otherwise never be judged again.
func (w *world) judgeAll() {
	for _, p := range w.projects {
		if p.online {
			w.checkConsumerDeparture(p)
		}
	}
	for _, p := range w.providers {
		if p.online {
			w.checkProviderDeparture(p)
		}
	}
}

// tailMean is the mean of one gauge over the last fraction frac of the
// samples (at least the last one): the steady-state estimate.
func tailMean(pts []TrajectoryPoint, frac float64, v func(TrajectoryPoint) float64) float64 {
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

// project is a BOINC project: a consumer issuing computational queries.
type project struct {
	w *world

	id          model.ConsumerID
	name        string
	arrivalRate float64
	replication int
	quorum      int
	delayTarget float64

	policy consumerPolicy
	prefs  []float64 // static preference per volunteer
	book   *book

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
	return p.policy(consumerInputs{
		preference:    pref,
		reputation:    p.book.reputation(snap.ID),
		expectedDelay: snap.ExpectedDelay(q.Work),
		delayTarget:   p.delayTarget,
	})
}

// volunteer is what a BOINC host adds to the provider model: its
// per-project preferences and intention policy, its price, its departure
// clock and, where the technique enforces shares, its per-project lanes.
type volunteer struct {
	prefs       []float64 // static preference per project
	policy      providerPolicy
	priceFactor float64
	belowSince  float64 // first instant δs stayed below threshold; -1 = not below

	// shares[c] is the fraction of capacity devoted to project c, derived
	// from the preferences; busyUntilC and pendingC are the per-project
	// lanes' drain times and pending work. All nil unless shares are
	// enforced.
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
// [-1, 1]) and re-derives its shares where it enforces them.
func (v *volunteer) setPrefs(prefs []float64) {
	v.prefs = clampPrefs(prefs)
	if v.shares != nil {
		v.shares = sharesFromPrefs(v.prefs)
	}
}

func clampPrefs(prefs []float64) []float64 {
	out := make([]float64, len(prefs))
	for i, v := range prefs {
		out[i] = clamp(v, -1, 1)
	}
	return out
}

// DevotedAvailable implements mediator.ShareReporter: the work q's project
// may still queue on the provider under its enforced shares. A provider
// without shares reports the mediator's own estimate, the idle part of its
// capacity.
func (p *provider) DevotedAvailable(q model.Query) float64 {
	if v := p.vol; v != nil && v.shares != nil {
		if c := int(q.Consumer); c >= 0 && c < len(v.shares) {
			return v.shares[c]*p.capacity*p.w.horizon - v.pendingC[c]
		}
		return 0
	}
	snap := p.Snapshot(p.w.eng.Now())
	return snap.Capacity * (1 - snap.Utilization)
}

// volunteerIntention is a volunteer's intention toward q's project, per
// its policy.
func volunteerIntention(p *provider, q model.Query) model.Intention {
	pref := 0.0
	if int(q.Consumer) < len(p.vol.prefs) {
		pref = p.vol.prefs[q.Consumer]
	}
	return p.vol.policy(providerInputs{
		preference:   pref,
		utilization:  p.utilization(p.w.eng.Now()),
		satisfaction: p.satisfaction(),
	})
}

// volunteerBid is the economic baseline's price: the expected completion
// delay scaled by a private margin — cost-based and interest-blind.
func volunteerBid(p *provider, q model.Query) float64 {
	return (p.pendingWork + q.Work) / p.capacity * p.vol.priceFactor
}
