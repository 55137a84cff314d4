package boinc

import (
	"testing"

	"sbqa/internal/alloc"
	"sbqa/internal/core"
	"sbqa/internal/intention"
	"sbqa/internal/model"
	"sbqa/internal/stats"
	"sbqa/internal/workload"
)

// onlineVolunteers counts w's volunteers still online.
func onlineVolunteers(w *World) int {
	n := 0
	for _, v := range w.volunteers {
		if v.online {
			n++
		}
	}
	return n
}

// onlineProjects counts w's projects still online.
func onlineProjects(w *World) int {
	n := 0
	for _, p := range w.projects {
		if p.online {
			n++
		}
	}
	return n
}

// smallConfig returns a quick-running world configuration.
func smallConfig(mode Mode, seed uint64) Config {
	cfg := DefaultConfig(40, seed)
	cfg.Mode = mode
	cfg.Duration = 300
	cfg.SampleEvery = 10
	return cfg
}

// autonomousConfig runs the demo's 2000 simulated seconds: a participant
// judges the system only once half its 100-interaction window is full, and
// departures start after the first 20% of the run.
func autonomousConfig(seed uint64) Config {
	cfg := smallConfig(Autonomous, seed)
	cfg.Duration = 2000
	return cfg
}

func TestWorldConstruction(t *testing.T) {
	w, err := NewWorld(alloc.NewCapacity(), smallConfig(Captive, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Projects()) != 3 {
		t.Errorf("projects = %d", len(w.Projects()))
	}
	if len(w.Volunteers()) != 40 {
		t.Errorf("volunteers = %d", len(w.Volunteers()))
	}
	if w.Mediator().Providers() != 40 || w.Mediator().Consumers() != 3 {
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
	cfg := smallConfig(Captive, 1)
	cfg.Workload.Volunteers = 0
	if _, err := NewWorld(alloc.NewCapacity(), cfg); err == nil {
		t.Error("bad workload accepted")
	}
}

func TestCaptiveRunBasics(t *testing.T) {
	w, err := NewWorld(alloc.NewCapacity(), smallConfig(Captive, 2))
	if err != nil {
		t.Fatal(err)
	}
	r := w.Run()
	if w.col.Issued < 100 {
		t.Fatalf("only %d queries issued in 300s; arrivals broken", w.col.Issued)
	}
	if r.Completed == 0 {
		t.Fatal("no queries completed")
	}
	if float64(r.Completed) < float64(w.col.Issued)*0.8 {
		t.Errorf("completed %d of %d; system drowning at ρ=0.7", r.Completed, w.col.Issued)
	}
	if r.MeanResponseTime <= 0 {
		t.Errorf("response time %v", r.MeanResponseTime)
	}
	if r.ProvidersLeft != 0 || r.ConsumersLeft != 0 {
		t.Errorf("captive world had departures: %d/%d", r.ProvidersLeft, r.ConsumersLeft)
	}
	if r.ConsumerSat <= 0 || r.ConsumerSat > 1 || r.ProviderSat < 0 || r.ProviderSat > 1 {
		t.Errorf("satisfaction out of range: C=%v P=%v", r.ConsumerSat, r.ProviderSat)
	}
	if w.Engine().Now() != 300 {
		t.Errorf("clock = %v", w.Engine().Now())
	}
}

func TestAllAllocatorsRun(t *testing.T) {
	allocators := func() []alloc.Allocator {
		return []alloc.Allocator{
			alloc.NewCapacity(),
			alloc.NewEconomic(stats.NewRNG(3)),
			alloc.NewRandom(stats.NewRNG(4)),
			alloc.NewRoundRobin(),
			core.MustNew(core.Config{Seed: 1}),
		}
	}
	for _, a := range allocators() {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			w, err := NewWorld(a, smallConfig(Captive, 5))
			if err != nil {
				t.Fatal(err)
			}
			r := w.Run()
			if r.Completed == 0 {
				t.Fatalf("%s completed no queries", a.Name())
			}
			if r.MeanResponseTime <= 0 {
				t.Fatalf("%s: response time %v", a.Name(), r.MeanResponseTime)
			}
		})
	}
}

func TestRunDeterminism(t *testing.T) {
	mk := func() (int64, float64, float64) {
		w, err := NewWorld(core.MustNew(core.Config{Seed: 1}), smallConfig(Captive, 77))
		if err != nil {
			t.Fatal(err)
		}
		r := w.Run()
		return r.Completed, r.MeanResponseTime, r.ProviderSat
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
	w, err := NewWorld(alloc.NewCapacity(), autonomousConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	r := w.Run()
	if r.ProvidersLeft == 0 {
		t.Error("no volunteer left under interest-blind allocation; departure rule broken")
	}
	if onlineVolunteers(w) != 40-r.ProvidersLeft {
		t.Errorf("online count %d inconsistent with %d departures", onlineVolunteers(w), r.ProvidersLeft)
	}
	// Departure records must carry the sub-threshold satisfaction.
	for _, d := range w.Collector().Departures {
		if d.Provider != model.NoProvider && d.Satisfaction >= 0.35 {
			t.Errorf("provider %d left with δs=%v ≥ threshold", d.Provider, d.Satisfaction)
		}
	}
}

func TestSbQARetainsMoreVolunteersThanCapacity(t *testing.T) {
	// The headline claim (Scenario 4): satisfaction-based allocation keeps
	// volunteers online that interest-blind techniques lose.
	seeds := []uint64{11, 12, 13}
	var capLeft, sbqaLeft int
	for _, seed := range seeds {
		wc, err := NewWorld(alloc.NewCapacity(), autonomousConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		rc := wc.Run()
		capLeft += rc.ProvidersLeft

		ws, err := NewWorld(core.MustNew(core.Config{Seed: 1}), autonomousConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		rs := ws.Run()
		sbqaLeft += rs.ProvidersLeft
	}
	if sbqaLeft >= capLeft {
		t.Errorf("SbQA lost %d volunteers vs capacity's %d; satisfaction adaptation not working", sbqaLeft, capLeft)
	}
}

func TestScenario5PolicySwap(t *testing.T) {
	// Response-time-seeking consumers and load-only providers must still
	// run and produce sane metrics.
	cfg := smallConfig(Captive, 9)
	cfg.ConsumerPolicy = func(workload.Project) intention.ConsumerPolicy {
		return intention.ResponseTimeConsumer{}
	}
	cfg.ProviderPolicy = func(workload.Volunteer) intention.ProviderPolicy {
		return intention.LoadOnlyProvider{}
	}
	w, err := NewWorld(core.MustNew(core.Config{Seed: 1}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := w.Run()
	if r.Completed == 0 || r.MeanResponseTime <= 0 {
		t.Fatalf("policy-swapped world broken: %+v", r)
	}
}

func TestUtilizationBounds(t *testing.T) {
	w, err := NewWorld(alloc.NewCapacity(), smallConfig(Captive, 14))
	if err != nil {
		t.Fatal(err)
	}
	// Probe utilization during the run via sampling hook.
	done := false
	var probe func()
	probe = func() {
		for _, v := range w.Volunteers() {
			u := v.Utilization(w.Engine().Now())
			if u < 0 || u > 1 {
				t.Errorf("utilization %v out of range", u)
				done = true
			}
		}
		if !done && w.Engine().Now() < 200 {
			w.Engine().Schedule(25, probe)
		}
	}
	w.Engine().Schedule(25, probe)
	w.Run()
}

func TestUnallocatedQueriesCounted(t *testing.T) {
	w, err := NewWorld(alloc.NewCapacity(), smallConfig(Captive, 15))
	if err != nil {
		t.Fatal(err)
	}
	// With every volunteer gone from the mediator, no query has an
	// eligible provider.
	for _, v := range w.Volunteers() {
		v.online = false
		w.Mediator().UnregisterProvider(v.ProviderID())
	}
	r := w.Run()
	if r.Completed != 0 {
		t.Errorf("completed %d with no eligible providers", r.Completed)
	}
	if r.Unallocated != w.col.Issued || w.col.Issued == 0 {
		t.Errorf("unallocated=%d issued=%d", r.Unallocated, w.col.Issued)
	}
	// Consumers must be maximally dissatisfied.
	for _, p := range w.Projects() {
		if got := p.Satisfaction(); got != 0 {
			t.Errorf("project %s δs = %v, want 0", p.Name(), got)
		}
	}
}

func TestSampleSeriesAligned(t *testing.T) {
	w, err := NewWorld(alloc.NewCapacity(), smallConfig(Captive, 16))
	if err != nil {
		t.Fatal(err)
	}
	w.Run()
	c := w.Collector()
	n := c.ConsumerSat.Len()
	if n == 0 {
		t.Fatal("no samples recorded")
	}
	for _, ts := range []int{
		c.ProviderSat.Len(), c.Utilization.Len(), c.OnlineProviders.Len(), c.QueueGini.Len(),
	} {
		if ts != n {
			t.Errorf("series misaligned: %d vs %d", ts, n)
		}
	}
}

func TestModeString(t *testing.T) {
	if Captive.String() != "captive" || Autonomous.String() != "autonomous" {
		t.Error("Mode.String broken")
	}
}
