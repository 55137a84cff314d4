package lab

import (
	"fmt"
	"math"
	"testing"

	"sbqa/internal/model"
	"sbqa/internal/policy"
	"sbqa/internal/stats"
)

// The volunteer preset's mechanics: execution, quorum validation, resource
// shares, departures and the gauges.

var capacityPolicy = policy.Spec{Kind: policy.Capacity}

// smallVolunteers returns a quick-running volunteer scenario under Capacity.
func smallVolunteers(autonomous bool, seed uint64) Scenario {
	sc := Volunteering(40, 300, seed)
	sc.SampleEvery = 10
	sc.Policy = capacityPolicy
	sc.Workload.Volunteers.Autonomous = autonomous
	return sc
}

// autonomousScenario runs the demo's 2000 simulated seconds: a participant
// judges the system only once half its 100-interaction window is full, and
// departures start after the first 20% of the run.
func autonomousScenario(seed uint64) Scenario {
	sc := smallVolunteers(true, seed)
	sc.Duration = 2000
	return sc
}

// builtWorld builds sc's world without running it.
func builtWorld(t *testing.T, sc Scenario) *world {
	t.Helper()
	sc, err := sc.normalized()
	if err != nil {
		t.Fatal(err)
	}
	w, err := build(sc, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.live.Close)
	return w
}

// runWorld runs sc with setup and returns the world and its report.
func runWorld(t *testing.T, sc Scenario, setup func(*world)) (*world, *Report) {
	t.Helper()
	w, r, err := run(sc, false, setup)
	if err != nil {
		t.Fatal(err)
	}
	return w, r
}

func onlineVolunteers(w *world) int {
	n := 0
	for _, v := range w.providers {
		if v.online {
			n++
		}
	}
	return n
}

func onlineProjects(w *world) int {
	n := 0
	for _, p := range w.projects {
		if p.online {
			n++
		}
	}
	return n
}

func TestWorldConstruction(t *testing.T) {
	w := builtWorld(t, smallVolunteers(false, 1))
	if len(w.projects) != 3 {
		t.Errorf("projects = %d", len(w.projects))
	}
	if len(w.providers) != 40 {
		t.Errorf("volunteers = %d", len(w.providers))
	}
	if w.live.Directory().NumProviders() != 40 || w.live.Directory().NumConsumers() != 3 {
		t.Error("registration incomplete")
	}
	if onlineVolunteers(w) != 40 || onlineProjects(w) != 3 {
		t.Error("everyone should start online")
	}
	if w.horizon <= 0 {
		t.Error("utilization horizon not defaulted")
	}
}

func TestWorldRejectsBadWorkload(t *testing.T) {
	sc := smallVolunteers(false, 1)
	sc.Workload.Volunteers.Volunteers = 0
	if _, err := Run(sc); err == nil {
		t.Error("bad workload accepted")
	}
}

func TestCaptiveRunBasics(t *testing.T) {
	w, r := runWorld(t, smallVolunteers(false, 2), nil)
	if r.Issued < 100 {
		t.Fatalf("only %d queries issued in 300s; arrivals broken", r.Issued)
	}
	if r.Completed == 0 {
		t.Fatal("no queries completed")
	}
	if float64(r.Completed) < float64(r.Issued)*0.8 {
		t.Errorf("completed %d of %d; system drowning at ρ=0.7", r.Completed, r.Issued)
	}
	if r.MeanResponse <= 0 {
		t.Errorf("response time %v", r.MeanResponse)
	}
	v := r.Volunteers
	if v.ProvidersLeft != 0 || v.ConsumersLeft != 0 {
		t.Errorf("captive world had departures: %d/%d", v.ProvidersLeft, v.ConsumersLeft)
	}
	if v.ConsumerSat <= 0 || v.ConsumerSat > 1 || v.ProviderSat < 0 || v.ProviderSat > 1 {
		t.Errorf("satisfaction out of range: C=%v P=%v", v.ConsumerSat, v.ProviderSat)
	}
	if w.eng.Now() != 300 {
		t.Errorf("clock = %v", w.eng.Now())
	}
}

func TestAllAllocatorsRun(t *testing.T) {
	for _, spec := range []policy.Spec{
		{Name: "Capacity", Kind: policy.Capacity},
		{Name: "Economic", Kind: policy.Economic, Seed: 3},
		{Name: "Random", Kind: policy.Random, Seed: 4},
		{Name: "RoundRobin", Kind: policy.RoundRobin},
		{Name: "SbQA", Kind: policy.SbQA, Seed: 1},
	} {
		t.Run(spec.Name, func(t *testing.T) {
			sc := smallVolunteers(false, 5)
			sc.Policy = spec
			_, r := runWorld(t, sc, nil)
			if r.Completed == 0 {
				t.Fatalf("%s completed no queries", spec.Name)
			}
			if r.MeanResponse <= 0 {
				t.Fatalf("%s: response time %v", spec.Name, r.MeanResponse)
			}
		})
	}
}

func TestRunDeterminism(t *testing.T) {
	mk := func() (int, float64, float64) {
		sc := smallVolunteers(false, 77)
		sc.Policy = policy.Spec{Kind: policy.SbQA, Seed: 1}
		_, r := runWorld(t, sc, nil)
		return r.Completed, r.MeanResponse, r.Volunteers.ProviderSat
	}
	c1, rt1, ps1 := mk()
	c2, rt2, ps2 := mk()
	if c1 != c2 || rt1 != rt2 || ps1 != ps2 {
		t.Errorf("runs diverged: (%d,%v,%v) vs (%d,%v,%v)", c1, rt1, ps1, c2, rt2, ps2)
	}
}

func TestAutonomousDeparturesUnderCapacity(t *testing.T) {
	// Under capacity-based allocation, volunteers with negative preferences
	// keep receiving disliked queries; in autonomous mode some must leave.
	w, r := runWorld(t, autonomousScenario(6), nil)
	left := r.Volunteers.ProvidersLeft
	if left == 0 {
		t.Error("no volunteer left under interest-blind allocation; departure rule broken")
	}
	if onlineVolunteers(w) != 40-left {
		t.Errorf("online count %d inconsistent with %d departures", onlineVolunteers(w), left)
	}
	// Departure records must carry the sub-threshold satisfaction.
	for _, d := range r.Volunteers.Departures {
		if d.Provider != model.NoProvider && d.Satisfaction >= 0.35 {
			t.Errorf("provider %d left with δs=%v ≥ threshold", d.Provider, d.Satisfaction)
		}
	}
}

func TestProjectDepartureForgetsMemory(t *testing.T) {
	// A project whose δs stays below 0.5 for the grace period leaves: the
	// engine stops mediating for it and its satisfaction memory goes, so a
	// returning project with that id would start fresh.
	w := builtWorld(t, autonomousScenario(1))
	p := w.projects[0]
	reg := w.live.Registry()
	for i := 0; i < w.vol.minInteractions; i++ {
		reg.RecordAllocation(&model.Allocation{
			Query:              model.Query{ID: model.QueryID(i), Consumer: p.id, N: 1},
			Selected:           []model.ProviderID{0},
			Proposed:           []model.ProviderID{0},
			ConsumerIntentions: []model.Intention{-1},
			ProviderIntentions: []model.Intention{0},
		}, nil)
	}
	if sat := reg.ConsumerSatisfaction(p.id); sat >= ConsumerLeaveThreshold {
		t.Fatalf("δs = %v after only disliked allocations", sat)
	}
	w.checkConsumerDeparture(p)
	if !p.online {
		t.Fatal("project left on its first reading below the threshold, before the grace period")
	}
	w.eng.Run(w.eng.Now() + w.vol.grace) // the world is not started: only the clock moves
	w.checkConsumerDeparture(p)
	if p.online || onlineProjects(w) != 2 {
		t.Fatal("project below threshold for the grace period stayed online")
	}
	if w.live.Directory().Consumer(p.id) != nil || w.live.Directory().NumConsumers() != 2 {
		t.Error("departed project still registered with the engine")
	}
	if tr := reg.Consumer(p.id); tr.Interactions() != 0 || tr.Satisfaction() != 0.5 {
		t.Errorf("departed project's memory kept: %d interactions, δs = %v", tr.Interactions(), tr.Satisfaction())
	}
	v := w.gauges
	if v.ConsumersLeft != 1 || len(v.Departures) != 1 || v.Departures[0].Consumer != p.id {
		t.Errorf("departure not recorded: left %d, records %+v", v.ConsumersLeft, v.Departures)
	}
}

func TestSbQARetainsMoreVolunteersThanCapacity(t *testing.T) {
	// The headline claim (Scenario 4): satisfaction-based allocation keeps
	// volunteers online that interest-blind techniques lose.
	var capLeft, sbqaLeft int
	for _, seed := range []uint64{11, 12, 13} {
		_, rc := runWorld(t, autonomousScenario(seed), nil)
		capLeft += rc.Volunteers.ProvidersLeft

		sc := autonomousScenario(seed)
		sc.Policy = policy.Spec{Kind: policy.SbQA, Seed: 1}
		_, rs := runWorld(t, sc, nil)
		sbqaLeft += rs.Volunteers.ProvidersLeft
	}
	if sbqaLeft >= capLeft {
		t.Errorf("SbQA lost %d volunteers vs capacity's %d; satisfaction adaptation not working", sbqaLeft, capLeft)
	}
}

func TestScenario5PolicySwap(t *testing.T) {
	// Response-time-seeking consumers and load-only providers must still
	// run and produce sane metrics.
	sc := smallVolunteers(false, 9)
	sc.Policy = policy.Spec{Kind: policy.SbQA, Seed: 1}
	_, r := runWorld(t, sc, performanceOnly)
	if r.Completed == 0 || r.MeanResponse <= 0 {
		t.Fatalf("policy-swapped world broken: %+v", r)
	}
}

func TestUtilizationBounds(t *testing.T) {
	runWorld(t, smallVolunteers(false, 14), func(w *world) {
		// Probe utilization during the run.
		done := false
		var probe func()
		probe = func() {
			for _, v := range w.providers {
				if u := v.utilization(w.eng.Now()); u < 0 || u > 1 {
					t.Errorf("utilization %v out of range", u)
					done = true
				}
			}
			if !done && w.eng.Now() < 200 {
				w.eng.Schedule(25, probe)
			}
		}
		w.eng.Schedule(25, probe)
	})
}

func TestUnallocatedQueriesCounted(t *testing.T) {
	w, r := runWorld(t, smallVolunteers(false, 15), func(w *world) {
		// With every volunteer gone from the engine, no query has an
		// eligible provider.
		for _, v := range w.providers {
			v.online = false
			w.live.UnregisterWorker(v.id)
		}
	})
	if r.Completed != 0 {
		t.Errorf("completed %d with no eligible providers", r.Completed)
	}
	if r.Rejected != r.Issued || r.Issued == 0 {
		t.Errorf("unallocated=%d issued=%d", r.Rejected, r.Issued)
	}
	// Consumers must be maximally dissatisfied.
	for _, p := range w.projects {
		if got := p.satisfaction(); got != 0 {
			t.Errorf("project %s δs = %v, want 0", p.name, got)
		}
	}
}

func TestSampleSeriesAligned(t *testing.T) {
	_, r := runWorld(t, smallVolunteers(false, 16), nil)
	pts := r.Trajectory
	if len(pts) == 0 {
		t.Fatal("no samples recorded")
	}
	// One gauge row every SampleEvery = 10 s over 300 s.
	if len(pts) != 30 {
		t.Errorf("samples = %d, want 30", len(pts))
	}
	for i, p := range pts {
		if want := float64(i+1) * 10; math.Abs(p.T-want) > 1e-9 {
			t.Errorf("sample %d at t=%v, want %v", i, p.T, want)
		}
	}
}

// TestWorldInvariantsUnderRandomConfigs drives every allocator through a
// battery of randomized configurations — population size, load, replication,
// autonomy, malicious fractions, policies, kn — and checks the accounting
// invariants that must hold whatever happens:
//
//	issued = completed + unallocated + validation failures + in flight
//	satisfactions ∈ [0,1]; online counts consistent with departures;
//	response times positive; utilizations ∈ [0,1].
func TestWorldInvariantsUnderRandomConfigs(t *testing.T) {
	rng := stats.NewRNG(2024)
	mkPolicy := func(kind int, seed uint64) policy.Spec {
		switch kind {
		case 0:
			return policy.Spec{Kind: policy.Capacity}
		case 1:
			return policy.Spec{Kind: policy.Economic, Seed: seed}
		case 2:
			return policy.Spec{Kind: policy.Random, Seed: seed}
		case 3:
			return policy.Spec{Kind: policy.ShareBased}
		default:
			return policy.Spec{Kind: policy.SbQA, K: 5 + rng.Intn(20), Kn: 1 + rng.Intn(5), Seed: seed}
		}
	}

	for trial := 0; trial < 25; trial++ {
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			seed := uint64(1000 + trial)
			sc := Volunteering(10+rng.Intn(50), 150+float64(rng.Intn(150)), seed)
			sc.SampleEvery = 10
			v := sc.Workload.Volunteers
			v.Load = 0.3 + rng.Float64()*0.6
			v.Malicious = rng.Float64() * 0.3
			v.Autonomous = rng.Bool(0.5)
			_ = rng.Bool(0.3) // the former share-enforcement coin, kept so later draws match (shares are enforced under share_based)
			adaptive := rng.Bool(0.3)
			responseTime := rng.Bool(0.3)
			v.Projects = DefaultProjects()
			for i := range v.Projects {
				v.Projects[i].Replication = 1 + rng.Intn(3)
			}
			sc.Policy = mkPolicy(rng.Intn(5), seed)
			w, r := runWorld(t, sc, func(w *world) {
				for _, vol := range w.providers {
					if adaptive {
						vol.vol.policy = adaptiveProvider
					}
				}
				for _, p := range w.projects {
					if responseTime {
						p.policy = responseTimeConsumer
					}
				}
			})

			if acc := r.Completed + r.Rejected + r.Failed + r.InFlight; acc != r.Issued {
				t.Errorf("accounting: issued=%d completed=%d unalloc=%d failed=%d inflight=%d",
					r.Issued, r.Completed, r.Rejected, r.Failed, r.InFlight)
			}
			for _, vol := range w.providers {
				if s := vol.satisfaction(); s < 0 || s > 1 {
					t.Errorf("volunteer %d δs=%v", vol.id, s)
				}
				if u := vol.utilization(w.eng.Now()); u < 0 || u > 1 {
					t.Errorf("volunteer %d util=%v", vol.id, u)
				}
			}
			for _, p := range w.projects {
				if s := p.satisfaction(); s < 0 || s > 1 {
					t.Errorf("project %s δs=%v", p.name, s)
				}
				if f := p.failureRate; f < 0 || f > 1 {
					t.Errorf("project %s failure rate %v", p.name, f)
				}
			}
			if r.MeanResponse < 0 {
				t.Errorf("negative response time %v", r.MeanResponse)
			}
			// Online bookkeeping: departures = offline count.
			if offline := len(w.providers) - onlineVolunteers(w); offline != r.Volunteers.ProvidersLeft {
				t.Errorf("offline=%d but departures=%d", offline, r.Volunteers.ProvidersLeft)
			}
			// The engine's directory only holds online providers.
			if got := w.live.Directory().NumProviders(); got != onlineVolunteers(w) {
				t.Errorf("engine tracks %d providers, online %d", got, onlineVolunteers(w))
			}
		})
	}
}

// TestWorldAccountingWithMalicious pins the validation bookkeeping: with a
// 100% malicious population nothing can validate.
func TestWorldAccountingWithMalicious(t *testing.T) {
	sc := smallVolunteers(false, 21)
	sc.Workload.Volunteers.Malicious = 1.0
	w, r := runWorld(t, sc, nil)
	if r.Completed != 0 {
		t.Errorf("%d queries validated with an all-malicious population", r.Completed)
	}
	if r.Failed == 0 {
		t.Error("no validation failures recorded")
	}
	if p := w.projects[0]; p.failureRate < 0.9 {
		t.Errorf("project failure rate %v, want near 1", p.failureRate)
	}
}

// TestQuorumSemantics checks that a query completes at the quorum-th valid
// result — the majority of its replicas, 2 of 3 — not at the replication
// count, and that an invalid result does not count toward it.
func TestQuorumSemantics(t *testing.T) {
	sc := smallVolunteers(false, 22)
	sc.Workload.Volunteers.Projects = []ProjectSpec{
		{Name: "p", Popularity: Popular, ArrivalShare: 1, Replication: 3, DelayTarget: 30},
	}
	w := builtWorld(t, sc)
	completed := 0
	w.vol.onComplete = func(model.Query, float64) { completed++ }
	w.mediateProject(model.Query{Consumer: w.projects[0].id, N: 3, Work: 1})
	var id model.QueryID
	var st *quorumState
	for id, st = range w.vol.pending {
	}
	if st == nil || st.expected != 3 || st.quorum != 2 {
		t.Fatalf("dispatched %+v, want 3 replicas and a quorum of 2", st)
	}
	q := model.Query{ID: id, Consumer: 0}
	for i, valid := range []bool{true, false, true} {
		if completed != 0 {
			t.Fatalf("completed after %d of 3 results", i)
		}
		w.resultArrived(q, model.ProviderID(i), valid)
	}
	if completed != 1 || w.vol.pending[id] != nil {
		t.Errorf("after 2 valid results of 3: %d completions, still pending %v", completed, w.vol.pending[id] != nil)
	}
}

// TestMM1ResponseTime validates the execution substrate against queueing
// theory: one volunteer with unit capacity, Poisson arrivals, exponential
// service demands and no network latency form an M/M/1 queue, whose mean
// response time is E[S]/(1−ρ). If the event kernel, the arrival process, or
// the queue accounting were wrong, this converges elsewhere.
func TestMM1ResponseTime(t *testing.T) {
	const (
		meanService = 10.0
		rho         = 0.8
		duration    = 120000.0
	)
	_, r := runWorld(t, mm1Scenario(rho, duration, 42), mm1(rho))
	want := meanService / (1 - rho) // 50 s
	if r.Completed < 5000 {
		t.Fatalf("only %d completions; arrival process broken", r.Completed)
	}
	if rel := math.Abs(r.MeanResponse-want) / want; rel > 0.1 {
		t.Errorf("M/M/1 mean response time = %.2f, theory %.2f (%.0f%% off)",
			r.MeanResponse, want, rel*100)
	}
	// Utilization gauge should hover near ρ·meanService/horizon clamped —
	// just check it is clearly nonzero and bounded.
	if u := r.Volunteers.Utilization; u <= 0 || u > 1 {
		t.Errorf("utilization gauge = %v", u)
	}
}

// TestMM1LowLoad checks the light-traffic limit: at ρ → 0 the response time
// approaches the bare service time.
func TestMM1LowLoad(t *testing.T) {
	const meanService = 10.0
	_, r := runWorld(t, mm1Scenario(0.05, 200000, 43), mm1(0.05))
	want := meanService / (1 - 0.05)
	if rel := math.Abs(r.MeanResponse-want) / want; rel > 0.1 {
		t.Errorf("light-traffic response time = %.2f, theory %.2f", r.MeanResponse, want)
	}
}

// mm1Scenario is one project with one replica per query over one volunteer.
func mm1Scenario(rho, duration float64, seed uint64) Scenario {
	sc := Volunteering(1, duration, seed)
	sc.Policy = capacityPolicy
	sc.Workload.Volunteers.Load = rho
	sc.Workload.Volunteers.Projects = []ProjectSpec{
		{Name: "only", Popularity: Popular, ArrivalShare: 1, Replication: 1, DelayTarget: 100},
	}
	return sc
}

// mm1 makes the volunteer a unit-capacity server reached without latency,
// with arrivals at rate ρ / E[S].
func mm1(rho float64) func(*world) {
	return func(w *world) {
		w.vol.net = nil
		w.providers[0].capacity = 1
		w.projects[0].arrivalRate = rho / volunteerWork
	}
}

func TestSharesFromPrefs(t *testing.T) {
	tests := []struct {
		name  string
		prefs []float64
		want  []float64
	}{
		{"paper-80-20", []float64{0.75, 0.15}, []float64{0.8, 0.2}},
		{"negative-clamped", []float64{-1, 0.95}, []float64{0.05 / 1.05, 1.0 / 1.05}},
		{"all-negative", []float64{-0.5, -0.5}, []float64{0.5, 0.5}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := sharesFromPrefs(tt.prefs)
			var sum float64
			for i := range got {
				sum += got[i]
				if math.Abs(got[i]-tt.want[i]) > 1e-9 {
					t.Errorf("shares = %v, want %v", got, tt.want)
					break
				}
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("shares sum to %v", sum)
			}
		})
	}
}

// shareVolunteers is smallVolunteers under the share-based technique, the
// one that enforces shares.
func shareVolunteers(seed uint64) Scenario {
	sc := smallVolunteers(false, seed)
	sc.Policy = policy.Spec{Kind: policy.ShareBased}
	return sc
}

func TestVolunteerShareAccessors(t *testing.T) {
	w := builtWorld(t, shareVolunteers(1))
	v := w.providers[0].vol
	var sum float64
	for _, share := range v.shares {
		sum += share
	}
	if len(v.shares) != 3 || math.Abs(sum-1) > 1e-9 {
		t.Errorf("volunteer shares %v sum to %v", v.shares, sum)
	}
	// setPrefs recomputes shares.
	v.setPrefs([]float64{0.75, 0.15, -1})
	if got := v.shares[0]; math.Abs(got-(0.8/1.05)) > 1e-9 {
		t.Errorf("recomputed share = %v", got)
	}
}

func TestDevotedAvailableBudget(t *testing.T) {
	w := builtWorld(t, shareVolunteers(2))
	v := w.providers[0]
	v.vol.setPrefs([]float64{0.75, 0.15, -1})
	q := model.Query{ID: 1, Consumer: 0, N: 1, Work: 5}
	budget := v.DevotedAvailable(q)
	want := (0.8 / 1.05) * v.capacity * w.horizon
	if math.Abs(budget-want) > 1e-9 {
		t.Errorf("budget = %v, want %v", budget, want)
	}
	// Queued work eats into the budget.
	v.enqueue(q)
	if got := v.DevotedAvailable(q); math.Abs(got-(want-5)) > 1e-9 {
		t.Errorf("after enqueue = %v, want %v", got, want-5)
	}
	// Out-of-range consumer has no budget.
	if v.DevotedAvailable(model.Query{Consumer: 99, N: 1, Work: 1}) != 0 {
		t.Error("foreign consumer should have zero budget")
	}
}

func TestEnforcedSharesSlowServiceDown(t *testing.T) {
	// Same task, share-enforced vs not: the enforced one completes later
	// because the disliked project's work runs at its small share.
	mk := func(enforce bool) float64 {
		sc := smallVolunteers(false, 3)
		if enforce {
			sc.Policy = policy.Spec{Kind: policy.ShareBased}
		}
		w := builtWorld(t, sc)
		v := w.providers[0]
		v.vol.setPrefs([]float64{0.75, 0.15, -1})
		q := model.Query{ID: 1, Consumer: 2, N: 1, Work: 10} // project with token 0.05/1.05 share
		var done float64
		w.serve(v, q)
		// Drain the engine; completion is the only event besides network.
		w.eng.Schedule(0, func() {})
		for w.eng.Step() {
			if v.queueLen == 0 && done == 0 {
				done = w.eng.Now()
			}
		}
		return done
	}
	free := mk(false)
	enforced := mk(true)
	if enforced <= free {
		t.Errorf("share-enforced completion %v should be later than free %v", enforced, free)
	}
	if enforced < free*5 {
		t.Errorf("token share should slow service by an order of magnitude: %v vs %v", enforced, free)
	}
}

func TestSetArrivalRate(t *testing.T) {
	var rate0 float64
	// Stop project 0 at t=100; count its queries issued after t=110 (one
	// in-flight arrival may still fire right at the switch).
	var afterStop int
	runWorld(t, smallVolunteers(false, 4), func(w *world) {
		p := w.projects[0]
		rate0 = p.arrivalRate
		w.vol.onComplete = func(q model.Query, _ float64) {
			if q.Consumer == 0 && q.IssuedAt > 110 {
				afterStop++
			}
		}
		w.eng.Schedule(100, func() { w.setArrivalRate(p, 0) })
	})
	if rate0 <= 0 {
		t.Fatal("project 0 has no arrival rate")
	}
	if afterStop > 1 {
		t.Errorf("%d project-0 queries issued after the stop", afterStop)
	}
	// Restarting mid-run works too.
	var lateCount int
	runWorld(t, smallVolunteers(false, 4), func(w *world) {
		p := w.projects[0]
		w.vol.onComplete = func(q model.Query, _ float64) {
			if q.Consumer == 0 && q.IssuedAt > 160 {
				lateCount++
			}
		}
		w.eng.Schedule(100, func() { w.setArrivalRate(p, 0) })
		w.eng.Schedule(150, func() { w.setArrivalRate(p, rate0) })
	})
	if lateCount == 0 {
		t.Error("restarted project issued nothing")
	}
}

func TestOnCompleteHook(t *testing.T) {
	var count int
	var lastRT float64
	_, r := runWorld(t, smallVolunteers(false, 5), func(w *world) {
		w.vol.onComplete = func(q model.Query, rt float64) {
			count++
			lastRT = rt
		}
	})
	if count != r.Completed {
		t.Errorf("OnComplete fired %d times, completed %d", count, r.Completed)
	}
	if lastRT <= 0 {
		t.Errorf("last response time %v", lastRT)
	}
}

func TestTailMean(t *testing.T) {
	var pts []TrajectoryPoint
	for i := 1; i <= 10; i++ {
		pts = append(pts, TrajectoryPoint{T: float64(i), Utilization: float64(i)})
	}
	util := func(p TrajectoryPoint) float64 { return p.Utilization }
	if got := tailMean(pts, 0.5, util); math.Abs(got-8) > 1e-12 { // mean of 6..10
		t.Errorf("tailMean(0.5) = %v, want 8", got)
	}
	if got := tailMean(pts, 1, util); math.Abs(got-5.5) > 1e-12 {
		t.Errorf("tailMean(1) = %v, want 5.5", got)
	}
	// A tiny fraction is the last point.
	if got := tailMean(pts, 0.01, util); math.Abs(got-10) > 1e-12 {
		t.Errorf("tailMean(0.01) = %v, want 10", got)
	}
	if tailMean(nil, 0.5, util) != 0 {
		t.Error("tailMean of no samples should be 0")
	}
}

func TestPresetsRejectClassKnobs(t *testing.T) {
	sc := smallVolunteers(false, 1)
	sc.Workload.Flash = []FlashSpec{{At: 1, Duration: 1, Factor: 2}}
	if _, err := Run(sc); err == nil {
		t.Error("a flash crowd on a volunteer population was accepted and would be ignored")
	}
}

// TestVolunteerWinsCounted: a volunteer run counts a win at every dispatch,
// as a class run does, so its report carries the allocation shares by
// behavior and the online volunteers that never won. The run is too short
// for every volunteer to win.
func TestVolunteerWinsCounted(t *testing.T) {
	sc := smallVolunteers(false, 3)
	sc.Duration = 20
	sc.Workload.Volunteers.Malicious = 0.3
	w, r := runWorld(t, sc, nil)
	s := r.Shares
	if s.Malicious <= 0 || s.Honest <= 0 || s.FreeRider != 0 || s.OverClaimer != 0 {
		t.Errorf("shares %+v, want honest and malicious wins only", s)
	}
	if sum := s.Honest + s.FreeRider + s.OverClaimer + s.Malicious; math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	starved := 0
	for _, p := range w.providers {
		if p.online && p.allocs == 0 {
			starved++
		}
	}
	if starved == 0 || r.Starved != starved || r.StarvedFrac != float64(starved)/float64(len(w.providers)) {
		t.Errorf("starved %d (%v), want %d > 0 online volunteers without a win", r.Starved, r.StarvedFrac, starved)
	}
}
