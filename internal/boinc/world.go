// Package boinc implements the volunteer-computing world the SbQA demo
// evaluates on: projects (consumers) issue replicated computational queries
// that a mediator allocates to volunteers (providers). The world runs on the
// deterministic event simulator and supports the demo's two regimes:
//
//   - captive — participants cannot leave (Scenarios 1, 3, 5, 6);
//   - autonomous — a volunteer quits when its satisfaction drops below 0.35
//     and a project stops using the platform below 0.5 (Scenarios 2, 4),
//     shrinking the system's total capacity exactly as the paper warns.
package boinc

import (
	"context"
	"fmt"

	"sbqa/internal/alloc"
	"sbqa/internal/intention"
	"sbqa/internal/mediator"
	"sbqa/internal/metrics"
	"sbqa/internal/model"
	"sbqa/internal/reputation"
	"sbqa/internal/sim"
	"sbqa/internal/stats"
	"sbqa/internal/workload"
)

// Mode selects the autonomy regime.
type Mode int

// Autonomy regimes.
const (
	// Captive participants never leave, whatever their satisfaction
	// (dedicated grid hardware; Scenario 1's assumption).
	Captive Mode = iota
	// Autonomous participants leave when chronically dissatisfied
	// (volunteer computing; Scenario 2's assumption).
	Autonomous
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Captive {
		return "captive"
	}
	return "autonomous"
}

// Config assembles a world.
type Config struct {
	// Workload describes the population; see workload.DefaultConfig.
	Workload workload.Config

	// Mode selects captive or autonomous participants.
	Mode Mode

	// Duration is the simulated run length in seconds.
	Duration float64

	// SampleEvery is the gauge sampling period in seconds; 0 means
	// Duration/100.
	SampleEvery float64

	// NetworkLatency is the one-way message delay distribution; nil means
	// U[0.01, 0.05) seconds.
	NetworkLatency stats.Dist

	// ConsumerPolicy builds each project's intention policy; nil means
	// reputation-blended preferences (γ = 0.7). Scenario 5 swaps in
	// response-time seeking.
	ConsumerPolicy func(p workload.Project) intention.ConsumerPolicy

	// ProviderPolicy builds each volunteer's intention policy; nil means
	// preference expression — the BOINC semantics, where a volunteer
	// states the share of resources it devotes to each project. Scenario 5
	// swaps in load-only; the SQLB adaptive preference/load trade is
	// available as intention.AdaptiveProvider.
	ProviderPolicy func(v workload.Volunteer) intention.ProviderPolicy

	// AnalyzeBest turns on optimum-relative allocation-satisfaction
	// analysis (O(|P_q|) intention calls per query).
	AnalyzeBest bool

	// EnforceShares makes volunteers schedule each project's work at the
	// project's resource share of their capacity (BOINC's native
	// semantics, the paper's §IV motivating example): idle shares are
	// wasted. Without enforcement, volunteers run one FIFO queue at full
	// speed and express their affinities as intentions instead.
	EnforceShares bool

	// OnComplete, when set, is invoked for every fully served query with
	// its end-to-end response time (custom experiments hook per-phase or
	// per-project measurements here).
	OnComplete func(q model.Query, responseTime float64)

	// OnIssue, when set, is invoked for every query a project issues.
	OnIssue func(q model.Query)

	// ReplicationFn, when set, decides each query's replication factor at
	// issue time, overriding the project's static Replication. It receives
	// the project's static factor, its current satisfaction δs(c), and its
	// recent validation-failure rate (EWMA in [0,1]). This is the
	// satisfaction-adaptive replication extension (SbQR-style): replicate
	// more when results have been failing validation, less when the
	// population has proven trustworthy.
	ReplicationFn func(base int, satisfaction, failureRate float64) int

	// Seed drives all run randomness (arrivals, work, network, policies).
	Seed uint64
}

// DefaultConfig returns a ready-to-run configuration: the demo population
// with the given number of volunteers, captive mode, 2000 simulated seconds.
func DefaultConfig(volunteers int, seed uint64) Config {
	return Config{
		Workload:    workload.DefaultConfig(volunteers, seed),
		Mode:        Captive,
		Duration:    2000,
		SampleEvery: 20,
		Seed:        seed,
	}
}

// The demo's departure rule, applied in Autonomous mode only: a volunteer
// leaves below δs(p) = 0.35, a project below δs(c) = 0.5.
const (
	ProviderLeaveThreshold = 0.35
	ConsumerLeaveThreshold = 0.5
)

const (
	// satisfactionWindow is the satisfaction memory length k.
	satisfactionWindow = 100
	// minInteractions is how many remembered interactions a participant
	// needs before it judges the system (prevents cold-start flight:
	// Definition 2 reports 0 for a provider that has not yet won a single
	// proposal, which says nothing until the window holds real evidence).
	minInteractions = satisfactionWindow / 2
)

// World is one runnable simulation instance.
type World struct {
	cfg Config

	// warmup is the simulated time before departure decisions activate,
	// letting the adaptive ω reach steady state: 20% of Duration.
	warmup float64
	// grace is how long a participant's satisfaction must stay below its
	// threshold before it actually leaves: 10% of Duration. Definition 2
	// reports 0 the instant a provider's last win slides out of its
	// window, so instantaneous judgment would evict providers on transient
	// flickers; participants leave on chronic dissatisfaction.
	grace float64
	// horizon is the backlog drain time (seconds) mapped to utilization
	// 1.0: 4× the mean service time.
	horizon float64

	engine *sim.Engine
	net    *sim.Network
	med    *mediator.Mediator
	col    *metrics.Collector

	projects   []*Project
	volunteers []*Volunteer

	pending map[model.QueryID]*queryState
	nextQID model.QueryID
}

// queryState tracks one in-flight query until its validation quorum is
// reached (or every replica has responded without reaching it).
type queryState struct {
	project   *Project
	quorum    int // valid results needed
	expected  int // replicas dispatched
	valid     int
	responses int
	issuedAt  float64
}

// NewWorld generates the population and wires the simulation. The same
// population (same workload seed) can be handed to different allocators for
// head-to-head comparisons.
func NewWorld(allocator alloc.Allocator, cfg Config) (*World, error) {
	pop, err := workload.Generate(cfg.Workload)
	if err != nil {
		return nil, fmt.Errorf("boinc: %w", err)
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 2000
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = cfg.Duration / 100
	}
	if cfg.NetworkLatency == nil {
		cfg.NetworkLatency = stats.Uniform{Lo: 0.01, Hi: 0.05}
	}
	if cfg.ConsumerPolicy == nil {
		cfg.ConsumerPolicy = func(workload.Project) intention.ConsumerPolicy {
			return intention.ReputationBlendConsumer{Gamma: 0.7}
		}
	}
	if cfg.ProviderPolicy == nil {
		cfg.ProviderPolicy = func(workload.Volunteer) intention.ProviderPolicy {
			return intention.PreferenceProvider{}
		}
	}

	// Offset the world stream from the workload-generation stream so the
	// two draws stay independent under the same user seed.
	root := stats.NewRNG(cfg.Seed ^ 0x5b0a_c0de_0001)
	w := &World{
		cfg:     cfg,
		warmup:  0.2 * cfg.Duration,
		grace:   0.1 * cfg.Duration,
		horizon: 4 * pop.WorkDist.Mean(), // per unit capacity ~1
		engine:  sim.NewEngine(),
		col:     metrics.NewCollector(),
		pending: make(map[model.QueryID]*queryState),
	}
	w.net = sim.NewNetwork(cfg.NetworkLatency, root.Split())
	w.med = mediator.New(allocator, mediator.Config{Window: satisfactionWindow, AnalyzeBest: cfg.AnalyzeBest})

	for _, vp := range pop.Volunteers {
		v := &Volunteer{
			world:       w,
			id:          model.ProviderID(vp.Index),
			capacity:    vp.Capacity,
			priceFactor: vp.PriceFactor,
			malicious:   vp.Malicious,
			prefs:       vp.ProjectPref,
			policy:      cfg.ProviderPolicy(vp),
			online:      true,
			belowSince:  -1,
			shares:      sharesFromPrefs(vp.ProjectPref),
			busyUntilC:  make([]float64, len(pop.Projects)),
			pendingC:    make([]float64, len(pop.Projects)),
		}
		w.volunteers = append(w.volunteers, v)
		w.med.RegisterProvider(v)
	}
	for _, pp := range pop.Projects {
		p := &Project{
			world:       w,
			id:          model.ConsumerID(pp.Index),
			name:        pp.Name,
			arrivalRate: pp.ArrivalRate,
			replication: pp.Replication,
			delayTarget: pp.DelayTarget,
			policy:      cfg.ConsumerPolicy(pp),
			prefs:       pp.VolunteerPref,
			quorum:      pp.Quorum,
			book:        reputation.NewBook(reputation.DefaultAlpha),
			online:      true,
			belowSince:  -1,
			arrival:     root.Split(),
			work:        root.Split(),
		}
		w.projects = append(w.projects, p)
		w.med.RegisterConsumer(p)
	}
	return w, nil
}

// Engine exposes the simulation engine (tests and custom scenarios).
func (w *World) Engine() *sim.Engine { return w.engine }

// Mediator exposes the mediation pipeline.
func (w *World) Mediator() *mediator.Mediator { return w.med }

// Collector exposes the run's metrics.
func (w *World) Collector() *metrics.Collector { return w.col }

// Projects returns the world's projects.
func (w *World) Projects() []*Project { return w.projects }

// Volunteers returns the world's volunteers.
func (w *World) Volunteers() []*Volunteer { return w.volunteers }

// Run executes the simulation for the configured duration and returns the
// summarized result under the allocator's name.
func (w *World) Run() metrics.Result {
	// Kick off arrivals and sampling.
	for _, p := range w.projects {
		w.scheduleArrival(p)
	}
	w.scheduleSample()
	w.engine.Run(w.cfg.Duration)
	return w.col.Summarize(w.med.Allocator().Name(), w.cfg.Duration, 0.25)
}

// scheduleArrival books the project's next query issue via the shared
// workload.Poisson process (same draw sequence as the historical inline
// expression; pinned by TestPoissonMatchesHistoricalInlineDraw).
func (w *World) scheduleArrival(p *Project) {
	if !p.online || p.arrivalRate <= 0 {
		return
	}
	gap := workload.Poisson{Rate: p.arrivalRate}.Next(w.engine.Now(), p.arrival)
	w.engine.Schedule(gap, func() {
		if !p.online {
			return
		}
		w.issue(p)
		w.scheduleArrival(p)
	})
}

// issue creates one query and sends it to the mediator.
func (w *World) issue(p *Project) {
	w.nextQID++
	n := p.replication
	if w.cfg.ReplicationFn != nil {
		n = w.cfg.ReplicationFn(p.replication, p.Satisfaction(), p.failureRate)
		if n < 1 {
			n = 1
		}
	}
	q := model.Query{
		ID:       w.nextQID,
		Consumer: p.id,
		Class:    int(p.id),
		N:        n,
		Work:     p.work.ExpFloat64() * w.meanWork(),
		IssuedAt: w.engine.Now(),
	}
	if q.Work <= 0 {
		q.Work = w.meanWork()
	}
	if w.cfg.OnIssue != nil {
		w.cfg.OnIssue(q)
	}
	w.net.Send(w.engine, func() { w.mediate(q) })
}

// meanWork returns the configured mean service demand.
func (w *World) meanWork() float64 {
	if w.cfg.Workload.WorkDist != nil {
		return w.cfg.Workload.WorkDist.Mean()
	}
	return 10
}

// mediate runs the pipeline for q and dispatches the allocation.
func (w *World) mediate(q model.Query) {
	w.col.Issued++
	a, err := w.med.Mediate(context.Background(), w.engine.Now(), q)
	if err != nil {
		w.col.Unallocated++
		w.afterMediation(q, nil)
		return
	}
	w.col.MediationContacts.Add(float64(len(a.Proposed)))

	// Interactive techniques (SbQA, Economic) pay an extra round trip to
	// collect intentions or bids before dispatching.
	extra := 0.0
	if ia, ok := w.med.Allocator().(interface{ Interactive() bool }); ok && ia.Interactive() {
		extra = w.net.RoundTrip()
	}

	st := &queryState{project: w.projectByID(q.Consumer), issuedAt: q.IssuedAt, expected: len(a.Selected)}
	st.quorum = q.N
	if st.project != nil && st.project.quorum < st.quorum {
		// The static quorum caps how many matching results are required;
		// adaptive replication may dispatch more replicas than that for
		// safety margin, never fewer matches.
		st.quorum = st.project.quorum
	}
	if st.quorum > st.expected {
		st.quorum = st.expected
	}
	if st.quorum < 1 {
		st.quorum = 1
	}
	w.pending[q.ID] = st
	for _, pid := range a.Selected {
		v := w.volunteerByID(pid)
		if v == nil {
			continue
		}
		delay := extra + w.net.Delay()
		w.engine.Schedule(delay, func() { v.enqueue(q) })
	}
	w.afterMediation(q, a)
}

// resultArrived handles one result reaching the project. Invalid results
// (from malicious volunteers) ruin the sender's reputation and do not count
// toward the validation quorum; the query completes at the quorum-th valid
// result and fails if every replica responds without reaching it.
func (w *World) resultArrived(q model.Query, from model.ProviderID, valid bool) {
	st, ok := w.pending[q.ID]
	if !ok {
		return
	}
	now := w.engine.Now()
	latency := now - st.issuedAt
	if st.project != nil {
		quality := 0.0 // an invalid result is a worst-possible interaction
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
		w.col.ResponseTime.Add(latency)
		w.col.Completed++
		delete(w.pending, q.ID)
		if st.project != nil {
			st.project.observeValidation(true)
		}
		if w.cfg.OnComplete != nil {
			w.cfg.OnComplete(q, latency)
		}
	case st.responses >= st.expected:
		w.col.ValidationFailures++
		delete(w.pending, q.ID)
		if st.project != nil {
			st.project.observeValidation(false)
		}
	}
}

// afterMediation applies the autonomy rules to everyone whose satisfaction
// window just changed.
func (w *World) afterMediation(q model.Query, a *model.Allocation) {
	if w.cfg.Mode != Autonomous || w.engine.Now() < w.warmup {
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

// checkProviderDeparture applies the chronic-dissatisfaction rule to one
// volunteer: once its window holds enough evidence and δs(p) stays below the
// threshold for the grace period, it quits.
func (w *World) checkProviderDeparture(v *Volunteer) {
	tr := w.med.Registry().Provider(v.id)
	sat := tr.Satisfaction()
	if tr.Interactions() < minInteractions || sat >= ProviderLeaveThreshold {
		v.belowSince = -1
		return
	}
	now := w.engine.Now()
	if v.belowSince < 0 {
		v.belowSince = now
		return
	}
	if now-v.belowSince >= w.grace {
		w.departProvider(v, sat)
	}
}

// checkConsumerDeparture applies the chronic-dissatisfaction rule to one
// project.
func (w *World) checkConsumerDeparture(p *Project) {
	tr := w.med.Registry().Consumer(p.id)
	sat := tr.Satisfaction()
	if tr.Interactions() < minInteractions || sat >= ConsumerLeaveThreshold {
		p.belowSince = -1
		return
	}
	now := w.engine.Now()
	if p.belowSince < 0 {
		p.belowSince = now
		return
	}
	if now-p.belowSince >= w.grace {
		w.departConsumer(p, sat)
	}
}

// departProvider takes a volunteer offline. Its queued tasks still finish
// (the host completes what it started), but it receives no new queries.
func (w *World) departProvider(v *Volunteer, sat float64) {
	v.online = false
	v.leftAt = w.engine.Now()
	w.med.UnregisterProvider(v.id)
	w.col.RecordDeparture(metrics.Departure{
		Time: v.leftAt, Provider: v.id, Consumer: model.NoConsumer, Satisfaction: sat,
	})
}

// departConsumer stops a project from issuing queries.
func (w *World) departConsumer(p *Project, sat float64) {
	p.online = false
	p.leftAt = w.engine.Now()
	w.med.UnregisterConsumer(p.id)
	w.col.RecordDeparture(metrics.Departure{
		Time: p.leftAt, Consumer: p.id, Provider: model.NoProvider, Satisfaction: sat,
	})
}

// scheduleSample books the recurring gauge sampling.
func (w *World) scheduleSample() {
	var tick func()
	tick = func() {
		w.sample()
		if w.engine.Now() < w.cfg.Duration {
			w.engine.Schedule(w.cfg.SampleEvery, tick)
		}
	}
	w.engine.Schedule(w.cfg.SampleEvery, tick)
}

// sample records one gauge row over the online population and runs the
// periodic departure sweep (participants no longer being proposed queries
// would otherwise never be re-examined).
func (w *World) sample() {
	now := w.engine.Now()
	autonomy := w.cfg.Mode == Autonomous && now >= w.warmup
	s := metrics.Sample{T: now}
	for _, p := range w.projects {
		if !p.online {
			continue
		}
		if autonomy {
			w.checkConsumerDeparture(p)
			if !p.online {
				continue
			}
		}
		s.ConsumerSats = append(s.ConsumerSats, p.Satisfaction())
		s.OnlineConsumers++
	}
	for _, v := range w.volunteers {
		if !v.online {
			continue
		}
		if autonomy {
			w.checkProviderDeparture(v)
			if !v.online {
				continue
			}
		}
		s.ProviderSats = append(s.ProviderSats, v.Satisfaction())
		s.Utilizations = append(s.Utilizations, v.Utilization(now))
		s.PendingWork = append(s.PendingWork, v.pendingWork)
		s.OnlineProviders++
	}
	w.col.AddSample(s)
}

func (w *World) projectByID(id model.ConsumerID) *Project {
	if int(id) < 0 || int(id) >= len(w.projects) {
		return nil
	}
	return w.projects[id]
}

func (w *World) volunteerByID(id model.ProviderID) *Volunteer {
	if int(id) < 0 || int(id) >= len(w.volunteers) {
		return nil
	}
	return w.volunteers[id]
}

// SetVolunteerPrefs overrides one volunteer's per-project preferences
// (Scenario 7 plants probe participants with scripted interests). Values are
// clamped to [-1, 1]; the slice is copied.
func (w *World) SetVolunteerPrefs(id model.ProviderID, prefs []float64) {
	v := w.volunteerByID(id)
	if v == nil {
		return
	}
	v.prefs = clampPrefs(prefs)
	v.shares = sharesFromPrefs(v.prefs)
}

// SetArrivalRate changes a project's query arrival rate mid-run (0 stops it
// issuing — e.g. an advertising campaign ending, the paper's Google AdWords
// motivation, or a project finishing its batch). Takes effect from the next
// arrival booking.
func (w *World) SetArrivalRate(id model.ConsumerID, rate float64) {
	p := w.projectByID(id)
	if p == nil {
		return
	}
	restart := p.arrivalRate <= 0 && rate > 0 && p.online
	p.arrivalRate = rate
	if restart {
		w.scheduleArrival(p)
	}
}

// SetProjectPrefs overrides one project's per-volunteer preferences.
func (w *World) SetProjectPrefs(id model.ConsumerID, prefs []float64) {
	p := w.projectByID(id)
	if p == nil {
		return
	}
	p.prefs = clampPrefs(prefs)
}

func clampPrefs(prefs []float64) []float64 {
	out := make([]float64, len(prefs))
	for i, v := range prefs {
		if v < -1 {
			v = -1
		}
		if v > 1 {
			v = 1
		}
		out[i] = v
	}
	return out
}
