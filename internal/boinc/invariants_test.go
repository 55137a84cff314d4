package boinc

import (
	"fmt"
	"testing"

	"sbqa/internal/alloc"
	"sbqa/internal/core"
	"sbqa/internal/intention"
	"sbqa/internal/knbest"
	"sbqa/internal/model"
	"sbqa/internal/stats"
	"sbqa/internal/workload"
)

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
	mkAllocator := func(kind int, seed uint64) alloc.Allocator {
		switch kind {
		case 0:
			return alloc.NewCapacity()
		case 1:
			return alloc.NewEconomic(stats.NewRNG(seed))
		case 2:
			return alloc.NewRandom(stats.NewRNG(seed))
		case 3:
			return alloc.NewShareBased()
		default:
			c := core.Config{Seed: 1}
			c.KnBest = knbest.Params{K: 5 + rng.Intn(20), Kn: 1 + rng.Intn(5)}
			c.Seed = seed
			return core.MustNew(c)
		}
	}

	for trial := 0; trial < 25; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%02d", trial), func(t *testing.T) {
			seed := uint64(1000 + trial)
			cfg := DefaultConfig(10+rng.Intn(50), seed)
			cfg.Duration = 150 + float64(rng.Intn(150))
			cfg.SampleEvery = 10
			cfg.Workload.LoadFactor = 0.3 + rng.Float64()*0.6
			cfg.Workload.MaliciousFraction = rng.Float64() * 0.3
			if rng.Bool(0.5) {
				cfg.Mode = Autonomous
			}
			if rng.Bool(0.3) {
				cfg.EnforceShares = true
			}
			if rng.Bool(0.3) {
				cfg.ProviderPolicy = func(workload.Volunteer) intention.ProviderPolicy {
					return intention.AdaptiveProvider{}
				}
			}
			if rng.Bool(0.3) {
				cfg.ConsumerPolicy = func(workload.Project) intention.ConsumerPolicy {
					return intention.ResponseTimeConsumer{}
				}
			}
			for i := range cfg.Workload.Projects {
				cfg.Workload.Projects[i].Replication = 1 + rng.Intn(3)
			}
			kind := rng.Intn(5)
			w, err := NewWorld(mkAllocator(kind, seed), cfg)
			if err != nil {
				t.Fatal(err)
			}
			r := w.Run()

			inFlight := int64(len(w.pending))
			acc := r.Completed + r.Unallocated + r.ValidationFailures + inFlight
			if acc != w.col.Issued {
				t.Errorf("accounting: issued=%d completed=%d unalloc=%d failed=%d inflight=%d",
					w.col.Issued, r.Completed, r.Unallocated, r.ValidationFailures, inFlight)
			}
			for _, v := range w.Volunteers() {
				if s := v.Satisfaction(); s < 0 || s > 1 {
					t.Errorf("volunteer %d δs=%v", v.ProviderID(), s)
				}
				if u := v.Utilization(w.Engine().Now()); u < 0 || u > 1 {
					t.Errorf("volunteer %d util=%v", v.ProviderID(), u)
				}
			}
			for _, p := range w.Projects() {
				if s := p.Satisfaction(); s < 0 || s > 1 {
					t.Errorf("project %s δs=%v", p.Name(), s)
				}
				if f := p.failureRate; f < 0 || f > 1 {
					t.Errorf("project %s failure rate %v", p.Name(), f)
				}
			}
			if r.MeanResponseTime < 0 {
				t.Errorf("negative response time %v", r.MeanResponseTime)
			}
			// Online bookkeeping: departures = offline count.
			if offline := len(w.Volunteers()) - onlineVolunteers(w); offline != r.ProvidersLeft {
				t.Errorf("offline=%d but departures=%d", offline, r.ProvidersLeft)
			}
			// The mediator's registry only tracks online providers.
			if got := w.Mediator().Providers(); got != onlineVolunteers(w) {
				t.Errorf("mediator tracks %d providers, online %d", got, onlineVolunteers(w))
			}
		})
	}
}

// TestWorldAccountingWithMalicious pins the validation bookkeeping: with a
// 100% malicious population nothing can validate.
func TestWorldAccountingWithMalicious(t *testing.T) {
	cfg := smallConfig(Captive, 21)
	cfg.Workload.MaliciousFraction = 1.0
	w, err := NewWorld(alloc.NewCapacity(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := w.Run()
	if r.Completed != 0 {
		t.Errorf("%d queries validated with an all-malicious population", r.Completed)
	}
	if r.ValidationFailures == 0 {
		t.Error("no validation failures recorded")
	}
	// Reputation must have collapsed for observed providers.
	p := w.Projects()[0]
	sawLow := false
	for _, v := range w.Volunteers() {
		if p.failureRate > 0.9 {
			sawLow = true
			break
		}
		_ = v
	}
	if !sawLow && p.failureRate < 0.9 {
		t.Errorf("project failure rate %v, want near 1", p.failureRate)
	}
}

// TestQuorumSemantics checks that a query completes at the quorum-th valid
// result — the majority of its replicas, 2 of 3 — not at the replication
// count, and that an invalid result does not count toward it.
func TestQuorumSemantics(t *testing.T) {
	cfg := smallConfig(Captive, 22)
	cfg.Workload.Projects = []workload.ProjectSpec{
		{Name: "p", Popularity: workload.Popular, ArrivalShare: 1, Replication: 3, DelayTarget: 30},
	}
	completed := 0
	cfg.OnComplete = func(model.Query, float64) { completed++ }
	w, err := NewWorld(alloc.NewCapacity(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := model.Query{ID: 1, Consumer: w.Projects()[0].id, N: 3, Work: 1}
	w.mediate(q)
	st := w.pending[q.ID]
	if st == nil || st.expected != 3 || st.quorum != 2 {
		t.Fatalf("dispatched %+v, want 3 replicas and a quorum of 2", st)
	}
	for i, valid := range []bool{true, false, true} {
		if completed != 0 {
			t.Fatalf("completed after %d of 3 results", i)
		}
		w.resultArrived(q, model.ProviderID(i), valid)
	}
	if completed != 1 || w.pending[q.ID] != nil {
		t.Errorf("after 2 valid results of 3: %d completions, still pending %v", completed, w.pending[q.ID] != nil)
	}
}
