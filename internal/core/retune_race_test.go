package core

import (
	"context"
	"sync"
	"testing"

	"sbqa/internal/alloc"
	"sbqa/internal/knbest"
	"sbqa/internal/model"
)

// TestRetuneWhileMediatingRace is the `-race` churn workout for the atomic
// parameter snapshot: one goroutine mediates continuously (the allocator's
// single-threaded contract) while others hammer SetParams and SetScoring.
// Before the snapshot redesign this was the documented unsafe path —
// Scenario 6 could only retune between runs; now a tuner may retune a live
// allocator at any time, and every mediation must see one coherent
// (params, scorer) pair.
func TestRetuneWhileMediatingRace(t *testing.T) {
	s := MustNew(Config{KnBest: knbest.Params{K: 8, Kn: 4}, Seed: 1})

	env := alloc.NewStaticEnv()
	snaps := make([]model.ProviderSnapshot, 16)
	for i := range snaps {
		snaps[i] = model.ProviderSnapshot{ID: model.ProviderID(i), Utilization: float64(i) / 16, Capacity: 1}
		env.SetCI(0, model.ProviderID(i), model.Intention(float64(i%5)/5))
		env.SetPI(model.ProviderID(i), 0, model.Intention(float64(i%3)/3))
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Retuners: KnBest sweeps and ω sweeps, concurrently with mediation.
	wg.Add(2)
	go func() {
		defer wg.Done()
		params := []knbest.Params{{K: 4, Kn: 2}, {K: 8, Kn: 4}, {K: 16, Kn: 8}, {K: 12, Kn: 1}}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				s.SetParams(params[i%len(params)])
			}
		}
	}()
	go func() {
		defer wg.Done()
		omegas := []float64{0, 0.25, 0.5, 0.75, 1}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				if i%6 == 5 {
					s.SetScoring(nil, 0) // back to adaptive
				} else {
					w := omegas[i%len(omegas)]
					s.SetScoring(&w, 0.5)
				}
				_ = s.Name() // reads the scorer snapshot
				_ = s.Params()
			}
		}
	}()

	// The mediating goroutine: Allocate stays single-threaded, as the
	// engine's shard lock guarantees in production.
	for i := 0; i < 5000; i++ {
		a, err := s.Allocate(context.Background(), env, model.Query{ID: model.QueryID(i), Consumer: 0, N: 1, Work: 1}, alloc.Snapshots(snaps))
		if err != nil {
			t.Fatalf("mediation %d: %v", i, err)
		}
		if a == nil || len(a.Selected) == 0 {
			t.Fatalf("mediation %d returned no selection", i)
		}
		// Coherence: the proposal can never exceed the largest kn any
		// retuner installs.
		if len(a.Proposed) > 8 {
			t.Fatalf("mediation %d proposed %d providers; largest configured kn is 8", i, len(a.Proposed))
		}
	}
	close(stop)
	wg.Wait()
}

// TestSetScoringSemantics pins the retuning surface: fixed ω installs and
// uninstalls cleanly and ε edits stick, without touching KnBest state.
func TestSetScoringSemantics(t *testing.T) {
	s := MustNew(Config{KnBest: knbest.Params{K: 6, Kn: 3}, Seed: 1})
	if !s.Scorer().Adaptive() {
		t.Fatal("default scorer should be adaptive")
	}
	w := 0.75
	s.SetScoring(&w, 0)
	if sc := s.Scorer(); sc.Adaptive() || sc.FixedOmega != 0.75 || sc.Epsilon != 1 {
		t.Fatalf("after SetScoring(0.75, 0): %+v", sc)
	}
	s.SetScoring(nil, 0.25)
	if sc := s.Scorer(); !sc.Adaptive() || sc.Epsilon != 0.25 {
		t.Fatalf("after SetScoring(nil, 0.25): %+v", sc)
	}
	if got := s.Params(); got != (knbest.Params{K: 6, Kn: 3}) {
		t.Fatalf("SetScoring disturbed KnBest params: %+v", got)
	}
	// The deprecated Scorer() accessor returns a snapshot: mutating it
	// must not affect the allocator.
	s.Scorer().Epsilon = 99
	if sc := s.Scorer(); sc.Epsilon != 0.25 {
		t.Fatalf("mutating the Scorer() snapshot leaked into the allocator: ε = %g", sc.Epsilon)
	}
}
