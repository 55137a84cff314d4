package boinc

import (
	"math"
	"testing"

	"sbqa/internal/alloc"
	"sbqa/internal/model"
)

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

func TestVolunteerShareAccessors(t *testing.T) {
	w, err := NewWorld(alloc.NewCapacity(), smallConfig(Captive, 1))
	if err != nil {
		t.Fatal(err)
	}
	v := w.Volunteers()[0]
	var sum float64
	for _, share := range v.shares {
		sum += share
	}
	if len(v.shares) != 3 || math.Abs(sum-1) > 1e-9 {
		t.Errorf("volunteer shares %v sum to %v", v.shares, sum)
	}
	// SetVolunteerPrefs recomputes shares.
	w.SetVolunteerPrefs(v.ProviderID(), []float64{0.75, 0.15, -1})
	if got := v.shares[0]; math.Abs(got-(0.8/1.05)) > 1e-9 {
		t.Errorf("recomputed share = %v", got)
	}
}

func TestDevotedAvailableBudget(t *testing.T) {
	w, err := NewWorld(alloc.NewCapacity(), smallConfig(Captive, 2))
	if err != nil {
		t.Fatal(err)
	}
	v := w.Volunteers()[0]
	w.SetVolunteerPrefs(v.ProviderID(), []float64{0.75, 0.15, -1})
	q := model.Query{ID: 1, Consumer: 0, N: 1, Work: 5}
	budget := v.DevotedAvailable(q)
	want := (0.8 / 1.05) * v.Capacity() * w.horizon
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
		cfg := smallConfig(Captive, 3)
		cfg.EnforceShares = enforce
		w, err := NewWorld(alloc.NewCapacity(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		v := w.Volunteers()[0]
		w.SetVolunteerPrefs(v.ProviderID(), []float64{0.75, 0.15, -1})
		q := model.Query{ID: 1, Consumer: 2, N: 1, Work: 10} // project with token 0.05/1.05 share
		var done float64
		v.enqueue(q)
		// Drain the engine; completion is the only event besides network.
		w.Engine().Schedule(0, func() {})
		for w.Engine().Step() {
			if v.queueLen == 0 && done == 0 {
				done = w.Engine().Now()
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
	cfg := smallConfig(Captive, 4)
	w, err := NewWorld(alloc.NewCapacity(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Stop project 0 at t=100; count its queries issued after.
	var afterStop int
	cfg0Rate := w.Projects()[0].ArrivalRate()
	if cfg0Rate <= 0 {
		t.Fatal("project 0 has no arrival rate")
	}
	w.Engine().Schedule(100, func() { w.SetArrivalRate(0, 0) })
	prevIssued := map[model.QueryID]bool{}
	_ = prevIssued
	w.Run()
	// Count completions of project 0 issued after t=110 (one in-flight
	// arrival may still fire right at the switch).
	for _, d := range w.Collector().Departures {
		_ = d
	}
	// Use the OnComplete-free path: inspect pending/issued via collector
	// series is indirect; instead re-run with a hook.
	cfg2 := smallConfig(Captive, 4)
	cfg2.OnComplete = func(q model.Query, _ float64) {
		if q.Consumer == 0 && q.IssuedAt > 110 {
			afterStop++
		}
	}
	w2, err := NewWorld(alloc.NewCapacity(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	w2.Engine().Schedule(100, func() { w2.SetArrivalRate(0, 0) })
	w2.Run()
	if afterStop > 1 {
		t.Errorf("%d project-0 queries issued after the stop", afterStop)
	}
	// Restarting mid-run works too.
	var lateCount int
	cfg3 := smallConfig(Captive, 4)
	cfg3.OnComplete = func(q model.Query, _ float64) {
		if q.Consumer == 0 && q.IssuedAt > 160 {
			lateCount++
		}
	}
	w3, err := NewWorld(alloc.NewCapacity(), cfg3)
	if err != nil {
		t.Fatal(err)
	}
	w3.Engine().Schedule(100, func() { w3.SetArrivalRate(0, 0) })
	w3.Engine().Schedule(150, func() { w3.SetArrivalRate(0, cfg0Rate) })
	w3.Run()
	if lateCount == 0 {
		t.Error("restarted project issued nothing")
	}
}

func TestOnCompleteHook(t *testing.T) {
	cfg := smallConfig(Captive, 5)
	var count int
	var lastRT float64
	cfg.OnComplete = func(q model.Query, rt float64) {
		count++
		lastRT = rt
	}
	w, err := NewWorld(alloc.NewCapacity(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := w.Run()
	if int64(count) != r.Completed {
		t.Errorf("OnComplete fired %d times, completed %d", count, r.Completed)
	}
	if lastRT <= 0 {
		t.Errorf("last response time %v", lastRT)
	}
}
