package lab

import (
	"context"
	"fmt"
	"sort"

	"sbqa/internal/live"
	"sbqa/internal/model"
	"sbqa/internal/qos"
	"sbqa/internal/sim"
	"sbqa/internal/stats"
)

// world wires a normalized scenario to a real live.Engine under the sim
// virtual clock. Everything runs on the sim engine's single event loop: the
// world only ever calls Engine.Mediate, so the live engine's shard loop
// stays idle until Run closes it.
type world struct {
	sc Scenario

	eng  *sim.Engine
	live *live.Engine

	// Split RNG streams, one per stochastic concern, so adding draws to
	// one cannot shift another (the volunteer generator splits its own the
	// same way).
	arrRNG  *stats.RNG
	costRNG *stats.RNG

	// The population, set at build by the scenario's preset: class
	// consumers, the volunteer preset's projects, and every provider,
	// indexed by its ID. caps holds one shared capability slice per
	// provider class.
	caps      [][]int
	classes   []*classState
	projects  []*project
	providers []*provider

	// What differs between the presets' providers, as data: their
	// intention and bid; the backlog seconds that read as utilization 1;
	// whether a snapshot's pending work is the backlog times the capacity
	// (classes) or the queued work (volunteers); whether the gauges average
	// online providers only (volunteers) or every provider (classes); and
	// the p99 rule over sorted response times.
	intention   func(*provider, model.Query) model.Intention
	bid         func(*provider, model.Query) float64
	horizon     float64
	backlogWork bool
	onlineOnly  bool
	p99         func(sorted []float64) float64

	// The run's ledgers: executions (classes) or queries (volunteers)
	// still unresolved when the horizon closes, and the response times of
	// queries outside any class.
	inFlight  int
	respTimes []float64

	// Autonomy (the volunteer preset only): from warmup on, dissatisfied
	// participants leave. gauges, when set, is the report's Volunteers,
	// and each trajectory point then carries the volunteer gauges.
	autonomous bool
	warmup     float64
	gauges     *VolunteerReport

	// Mediation station (runs with a MediationRate only): the real
	// class-aware scheduler, built from Policy.QoS, fed by issue(), drained
	// at MediationRate by a single virtual-clock server. qosIdx maps each
	// workload class to its service class's table index, resolved once at
	// build.
	sched       *qos.Scheduler[stationItem]
	qosIdx      []int
	serviceTime float64 // 1 / MediationRate
	stationBusy bool

	// The presets' state: nil unless the scenario declares one.
	vol *volunteering
	ads *adMarket

	report *Report
}

// stationItem is one queued submission awaiting the mediation station.
type stationItem struct {
	cs *classState
	c  *labConsumer
	q  model.Query
}

// stationDepth is the scheduler's blocking bound in the lab. The sim loop
// is single-threaded, so a blocking Push would deadlock it — the bound is
// set beyond any plausible backlog, making unbounded classes truly FIFO
// while bounded ones shed exactly as configured.
const stationDepth = 1 << 20

// Run executes the scenario and returns its report. It is deterministic:
// the same scenario yields a byte-identical Report.Encode().
func Run(sc Scenario) (*Report, error) {
	_, r, err := run(sc, false, nil)
	return r, err
}

// run is Run with two seams for the paper's studies. analyzeBest turns on
// the engine's round over all of P_q that their allocation-satisfaction
// columns read (one more consumer-intention round per query). setup, when
// set, adjusts the built world before the first event (probes, intention
// policies, phase switches). It returns the world for end-state readings.
func run(sc Scenario, analyzeBest bool, setup func(*world)) (*world, *Report, error) {
	sc, err := sc.normalized()
	if err != nil {
		return nil, nil, err
	}
	w, err := build(sc, analyzeBest)
	if err != nil {
		return nil, nil, err
	}
	defer w.live.Close()
	if setup != nil {
		setup(w)
	}
	w.start()
	w.eng.Run(sc.Duration)
	return w, w.finish(), nil
}

func build(sc Scenario, analyzeBest bool) (_ *world, err error) {
	eng := sim.NewEngine()
	lv, err := live.NewEngine(
		live.WithWindow(sc.Window),
		live.WithConcurrency(1), // proven byte-identical to a serialized mediator
		live.WithPolicy(sc.Policy),
		live.WithClock(eng.Now),
		live.WithAnalyzeBest(analyzeBest),
	)
	if err != nil {
		return nil, fmt.Errorf("lab: building engine: %w", err)
	}
	defer func() {
		if err != nil {
			lv.Close()
		}
	}()
	root := stats.NewRNG(sc.Seed)
	w := &world{
		sc:      sc,
		eng:     eng,
		live:    lv,
		arrRNG:  root.Split(),
		costRNG: root.Split(),
		report:  &Report{Scenario: sc},
	}
	switch {
	case sc.Workload.Volunteers != nil:
		return w, w.buildVolunteers()
	case sc.Workload.Ads != nil:
		w.buildAds()
		return w, nil
	}
	w.intention, w.bid = classIntention, classBid
	w.horizon, w.backlogWork = utilizationHorizon, true
	w.p99 = nearestRank99
	w.caps = make([][]int, len(sc.Workload.Classes))
	for i := range w.caps {
		w.caps[i] = []int{i}
	}

	adv := sc.Workload.Adversaries
	// The third stream is unused, but splitting it keeps capRNG, and every
	// capacity drawn from it, on the draws the recorded reports were made
	// with.
	root.Split()
	capRNG := root.Split()
	var nextPID model.ProviderID
	var nextCID model.ConsumerID
	for ci, spec := range sc.Workload.Classes {
		cost, err := spec.Cost.Build()
		if err != nil {
			return nil, err
		}
		cs := &classState{idx: ci, spec: spec, cost: cost}
		// Flash crowds targeting this class (or all classes) stack
		// multiplicatively on its rate.
		for _, f := range sc.Workload.Flash {
			if f.Class == "" || f.Class == spec.Name {
				cs.flashes = append(cs.flashes, f)
			}
		}

		for i := 0; i < spec.Consumers; i++ {
			c := &labConsumer{w: w, id: nextCID, rep: make(map[model.ProviderID]float64)}
			nextCID++
			cs.consumers = append(cs.consumers, c)
			lv.RegisterConsumer(c)
		}
		for i := 0; i < spec.Providers; i++ {
			p := &provider{
				w:        w,
				id:       nextPID,
				class:    int32(ci),
				capacity: capRNG.Range(spec.CapacityLo, spec.CapacityHi),
				online:   true,
			}
			nextPID++
			// Behavior assignment: a per-provider hash draw against the
			// cumulative adversary fractions, independent of class sizes.
			u := unit(mix64(sc.Seed^0x7E7E, uint64(p.id), 0))
			switch {
			case u < adv.FreeRiders:
				p.behavior = freeRider
			case u < adv.FreeRiders+adv.OverClaimers:
				p.behavior = overClaimer
				p.capacity *= overClaimSlowdown // truly slow, advertises fast
			}
			cs.providers = append(cs.providers, p)
			w.providers = append(w.providers, p)
			lv.RegisterProvider(p)
		}
		w.classes = append(w.classes, cs)
	}
	if sc.MediationRate > 0 {
		w.sched = qos.NewScheduler[stationItem](*sc.Policy.QoS, stationDepth, eng.Now)
		w.serviceTime = 1 / sc.MediationRate
		w.qosIdx = make([]int, len(w.classes))
		for i, cs := range w.classes {
			w.qosIdx[i], _ = w.sched.ClassIndex(cs.spec.QoS)
		}
	}
	return w, nil
}

// start books the initial event population: arrivals per class and
// project, the storm, and trajectory sampling.
func (w *world) start() {
	for _, cs := range w.classes {
		w.scheduleArrival(cs)
	}
	for _, p := range w.projects {
		w.scheduleProjectArrival(p)
	}
	if w.ads != nil {
		w.scheduleAdQuery()
		return // an ad run reports no trajectory
	}
	if st := w.sc.Workload.Storm; st != nil {
		w.eng.ScheduleAt(st.At, func() { w.storm(st, true) })
		w.eng.ScheduleAt(st.At+st.Duration, func() { w.storm(st, false) })
	}
	w.scheduleSample()
}

// scheduleArrival books the class's next query issue; issued queries
// rotate round-robin over the class's consumers.
func (w *world) scheduleArrival(cs *classState) {
	w.eng.Schedule(cs.gap(w.eng.Now(), w.arrRNG), func() {
		w.issue(cs)
		w.scheduleArrival(cs)
	})
}

func (w *world) issue(cs *classState) {
	c := cs.consumers[cs.cursor%len(cs.consumers)]
	cs.cursor++
	work := cs.cost.Sample(w.costRNG)
	if work <= 0 {
		work = cs.cost.Mean()
	}
	q := model.Query{
		Consumer: c.id,
		Class:    cs.idx,
		N:        cs.spec.Replication,
		Work:     work,
	}
	cs.issued++
	w.report.Issued++
	if w.sched == nil {
		w.mediate(cs, c, q)
		return
	}
	var deadline float64
	if cs.spec.DeadlineS > 0 {
		deadline = w.eng.Now() + cs.spec.DeadlineS
	}
	info, err := w.sched.Push(context.Background(), w.qosIdx[cs.idx], deadline, stationItem{cs: cs, c: c, q: q})
	if err != nil {
		// Closed scheduler — cannot happen inside the horizon; count it as
		// a rejection rather than lose the query from the ledger.
		cs.rejected++
		w.report.Rejected++
		return
	}
	if info != nil {
		w.recordShed(cs, info.Reason)
		return
	}
	w.drain()
}

// mediate runs one query through the real mediation pipeline and schedules
// the selected providers' executions — the historical direct path, and the
// station's service body.
func (w *world) mediate(cs *classState, c *labConsumer, q model.Query) {
	a, err := w.live.Mediate(context.Background(), q)
	if err != nil {
		cs.rejected++
		w.report.Rejected++
		return
	}
	cs.mediated++
	w.report.Mediated++
	for _, pid := range a.Selected {
		w.execute(cs, c, w.providers[pid], a.Query)
	}
}

// drain advances the mediation station: while idle, pick the next query per
// the scheduling discipline, serve it for serviceTime, mediate at the end
// of the service window, repeat. Expired-deadline pops are failed on the
// spot (counted, never mediated) and the loop continues to the next pick.
func (w *world) drain() {
	if w.stationBusy {
		return
	}
	for {
		it, res, ok := w.sched.TryPop()
		if !ok {
			return
		}
		if res.Shed {
			w.recordShed(it.cs, res.Info.Reason)
			continue
		}
		it.cs.queueWaits = append(it.cs.queueWaits, res.Wait)
		w.stationBusy = true
		w.eng.Schedule(w.serviceTime, func() {
			w.mediate(it.cs, it.c, it.q)
			w.sched.Done(w.serviceTime)
			w.stationBusy = false
			w.drain()
		})
		return
	}
}

// recordShed books one refused admission into the class and report ledgers.
func (w *world) recordShed(cs *classState, reason string) {
	cs.shed++
	if cs.shedByReason == nil {
		cs.shedByReason = make(map[string]int)
	}
	cs.shedByReason[reason]++
	w.report.Shed++
}

// execute simulates one selected provider performing the query: honest
// providers run it on their lane; free-riders sit on it until the
// workload's timeout. Exactly one completion event is scheduled either
// way, keeping the event count linear in allocations.
func (w *world) execute(cs *classState, c *labConsumer, p *provider, q model.Query) {
	p.allocs++
	w.inFlight++

	if p.behavior == freeRider {
		p.queueLen++
		w.eng.Schedule(w.sc.Workload.QueryTimeout, func() {
			p.queueLen--
			w.inFlight--
			cs.failed++
			w.report.Failed++
			c.observe(p.id, 0)
		})
		return
	}
	w.eng.ScheduleAt(p.enqueue(q), func() {
		p.release(q)
		w.inFlight--
		rt := w.eng.Now() - q.IssuedAt
		cs.completed++
		w.report.Completed++
		cs.respTimes = append(cs.respTimes, rt)
		c.observe(p.id, quality(rt, cs.spec.DelayTarget))
	})
}

// storm toggles a deterministic hash-selected fraction of the fleet.
func (w *world) storm(st *StormSpec, leave bool) {
	for _, p := range w.providers {
		if unit(mix64(w.sc.Seed^0xD00D, uint64(p.id), 1)) >= st.Fraction {
			continue
		}
		if leave {
			if p.online {
				w.depart(p)
			}
		} else if !p.online {
			w.rejoin(p)
		}
	}
}

func (w *world) depart(p *provider) {
	p.online = false
	w.live.UnregisterWorker(p.id)
}

func (w *world) rejoin(p *provider) {
	p.online = true
	w.live.RegisterProvider(p)
}

// scheduleSample books the recurring trajectory sample.
func (w *world) scheduleSample() {
	w.eng.Schedule(w.sc.SampleEvery, func() {
		w.sample()
		if w.eng.Now() < w.sc.Duration {
			w.scheduleSample()
		}
	})
}

// sample records one trajectory point (and per-class points when the
// scenario is small enough to afford them), after judging every online
// participant where the population is autonomous.
func (w *world) sample() {
	t := w.eng.Now()
	if w.autonomous && t >= w.warmup {
		w.judgeAll()
	}
	perClass := len(w.classes) <= 32

	var dsSum, daSum float64
	var consumers int
	for _, cs := range w.classes {
		cds, cda := w.consumerSums(cs)
		dsSum += cds
		daSum += cda
		consumers += len(cs.consumers)
		if perClass {
			n := float64(len(cs.consumers))
			cs.trajectory = append(cs.trajectory, ClassPoint{T: t, DS: cds / n, DA: cda / n})
		}
	}
	for _, p := range w.projects {
		if p.online {
			dsSum += p.satisfaction()
			daSum += w.live.Registry().ConsumerAdequation(p.id)
			consumers++
		}
	}

	stride := strideOver(len(w.providers), 4096)
	var pds, queueSum float64
	var sampled, queueMax, online int
	var sats, utils []float64
	for i := 0; i < len(w.providers); i += stride {
		p := w.providers[i]
		if w.onlineOnly && !p.online {
			continue
		}
		sat := p.satisfaction()
		pds += sat
		queueSum += float64(p.queueLen)
		queueMax = max(queueMax, p.queueLen)
		sampled++
		if w.gauges != nil {
			sats, utils = append(sats, sat), append(utils, p.utilization(t))
		}
	}
	for _, p := range w.providers {
		if p.online {
			online++
		}
	}

	pt := TrajectoryPoint{
		T:          t,
		ConsumerDS: ratio(dsSum, consumers),
		ConsumerDA: ratio(daSum, consumers),
		ProviderDS: ratio(pds, sampled),
		QueueMean:  ratio(queueSum, sampled),
		QueueMax:   queueMax,
		Online:     online,
		Issued:     w.report.Issued,
	}
	if w.gauges != nil {
		pt.ProviderSatGini = stats.Gini(sats)
		pt.Utilization, pt.UtilizationSD = stats.MeanOf(utils), stats.StdDevOf(utils)
		pt.OnlineConsumers = consumers
	}
	w.report.Trajectory = append(w.report.Trajectory, pt)
}

// summarize sorts xs and returns their mean and their 99th percentile by
// the rule p99; both 0 for no values.
func summarize(xs []float64, p99 func(sorted []float64) float64) (mean, tail float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	sort.Float64s(xs)
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), p99(xs)
}

// consumerSums returns the sums of the class's consumers' δs and δa.
func (w *world) consumerSums(cs *classState) (ds, da float64) {
	for _, c := range cs.consumers {
		ds += w.live.ConsumerSatisfaction(c.id)
		da += w.live.Registry().ConsumerAdequation(c.id)
	}
	return ds, da
}

// ratio is sum / n, and 0 when n is 0.
func ratio(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// finish assembles the report after the horizon closes.
func (w *world) finish() *Report {
	r := w.report
	r.Providers = len(w.providers)
	r.InFlight = w.inFlight

	allRT := w.respTimes
	var dsSum, daSum float64
	for _, cs := range w.classes {
		r.Consumers += len(cs.consumers)
		cr := ClassReport{
			Name:      cs.spec.Name,
			Issued:    cs.issued,
			Mediated:  cs.mediated,
			Rejected:  cs.rejected,
			Completed: cs.completed,
			Failed:    cs.failed,
			Shed:      cs.shed,
		}
		if len(cs.shedByReason) > 0 {
			cr.ShedByReason = cs.shedByReason
			if r.ShedByReason == nil {
				r.ShedByReason = make(map[string]int)
			}
			for reason, n := range cs.shedByReason {
				r.ShedByReason[reason] += n
			}
		}
		cr.QueueWaitMean, cr.QueueWaitP99 = summarize(cs.queueWaits, nearestRank99)
		cr.MeanResponse, cr.P99Response = summarize(cs.respTimes, nearestRank99)
		cds, cda := w.consumerSums(cs)
		cr.ConsumerDS = cds / float64(len(cs.consumers))
		cr.ConsumerDA = cda / float64(len(cs.consumers))
		dsSum += cds
		daSum += cda

		cr.Shares, cr.Starved = winShares(cs.providers)
		cr.Trajectory = cs.trajectory
		r.Classes = append(r.Classes, cr)
		allRT = append(allRT, cs.respTimes...)
	}
	consumers := r.Consumers
	for _, p := range w.projects {
		if p.online {
			dsSum += p.satisfaction()
			daSum += w.live.Registry().ConsumerAdequation(p.id)
			consumers++
		}
	}
	r.Consumers += len(w.projects)
	r.Participants = r.Providers + r.Consumers
	r.ConsumerSatisfaction = ratio(dsSum, consumers)
	r.ConsumerAdequation = ratio(daSum, consumers)
	r.Shares, r.Starved = winShares(w.providers)
	r.StarvedFrac = ratio(float64(r.Starved), r.Providers)

	r.MeanResponse, r.P99Response = summarize(allRT, w.p99)

	// Provider-side end state: mean δs over a stride (full fleet when
	// small) and the utilization Gini over the whole fleet.
	stride := strideOver(len(w.providers), 4096)
	var pds float64
	var sampled int
	for i := 0; i < len(w.providers); i += stride {
		if p := w.providers[i]; p.online || !w.onlineOnly {
			pds += p.satisfaction()
			sampled++
		}
	}
	r.ProviderSatisfaction = ratio(pds, sampled)

	utils := make([]float64, len(w.providers))
	for i, p := range w.providers {
		utils[i] = p.busyTime / w.sc.Duration
	}
	r.GiniUtilization = stats.Gini(utils)

	if w.sched != nil {
		// Queued closes the conservation ledger: every issued query is
		// mediated, rejected, shed, still queued at the horizon, or in
		// service at the station when it closed.
		st := w.sched.Stats()
		r.Queued = st.Depth
		if w.stationBusy {
			r.Queued++ // the in-service query left the queue but never mediated
		}
		var allWaits []float64
		for _, cs := range w.classes {
			allWaits = append(allWaits, cs.queueWaits...)
		}
		r.QueueWaitMean, r.QueueWaitP99 = summarize(allWaits, nearestRank99)
	}
	if g := w.gauges; g != nil {
		// The steady state: each gauge's mean over the last quarter.
		tail := func(v func(TrajectoryPoint) float64) float64 { return tailMean(r.Trajectory, 0.25, v) }
		g.ConsumerSat = tail(func(p TrajectoryPoint) float64 { return p.ConsumerDS })
		g.ProviderSat = tail(func(p TrajectoryPoint) float64 { return p.ProviderDS })
		g.ProviderSatGini = tail(func(p TrajectoryPoint) float64 { return p.ProviderSatGini })
		g.Utilization = tail(func(p TrajectoryPoint) float64 { return p.Utilization })
		g.UtilizationSD = tail(func(p TrajectoryPoint) float64 { return p.UtilizationSD })
		if n := len(r.Trajectory); n > 0 {
			g.OnlineAtEnd = r.Trajectory[n-1].Online
		}
		g.Contacts = ratio(g.Contacts, r.Mediated)
	}
	return r
}

// winShares returns the providers' allocation shares by behavior and how
// many of them finished online without a single win.
func winShares(providers []*provider) (_ BehaviorShares, starved int) {
	var counts [behaviors]int
	var total int
	for _, p := range providers {
		counts[p.behavior] += p.allocs
		total += p.allocs
		if p.online && p.allocs == 0 {
			starved++
		}
	}
	if total == 0 {
		return BehaviorShares{}, starved
	}
	f := func(b behavior) float64 { return float64(counts[b]) / float64(total) }
	return BehaviorShares{
		Honest:      f(honest),
		FreeRider:   f(freeRider),
		OverClaimer: f(overClaimer),
		Malicious:   f(malicious),
	}, starved
}
