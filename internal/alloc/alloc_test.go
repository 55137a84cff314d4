package alloc

import (
	"context"
	"testing"

	"sbqa/internal/model"
	"sbqa/internal/stats"
)

// allocate runs Allocate with a background context, failing the test on a
// protocol error — deterministic in-process environments never produce one.
func allocate(t *testing.T, a Allocator, env Env, q model.Query, cands []model.ProviderSnapshot) *model.Allocation {
	t.Helper()
	out, err := a.Allocate(context.Background(), env, q, Snapshots(cands))
	if err != nil {
		t.Fatalf("%s: Allocate error: %v", a.Name(), err)
	}
	return out
}

func snaps(utils ...float64) []model.ProviderSnapshot {
	out := make([]model.ProviderSnapshot, len(utils))
	for i, u := range utils {
		out[i] = model.ProviderSnapshot{ID: model.ProviderID(i), Utilization: u, Capacity: 1}
	}
	return out
}

func q(n int) model.Query {
	return model.Query{ID: 1, Consumer: 0, N: n, Work: 1}
}

func checkContract(t *testing.T, a *model.Allocation, wantSel int, candIDs map[model.ProviderID]bool) {
	t.Helper()
	if len(a.Selected) != wantSel {
		t.Fatalf("selected %d providers, want %d (%v)", len(a.Selected), wantSel, a)
	}
	proposed := map[model.ProviderID]bool{}
	for _, p := range a.Proposed {
		if !candIDs[p] {
			t.Fatalf("proposed foreign provider %d", p)
		}
		if proposed[p] {
			t.Fatalf("duplicate proposed provider %d", p)
		}
		proposed[p] = true
	}
	seen := map[model.ProviderID]bool{}
	for _, p := range a.Selected {
		if !proposed[p] {
			t.Fatalf("selected provider %d not in proposed set", p)
		}
		if seen[p] {
			t.Fatalf("duplicate selected provider %d", p)
		}
		seen[p] = true
	}
}

func idSet(cands []model.ProviderSnapshot) map[model.ProviderID]bool {
	out := map[model.ProviderID]bool{}
	for _, c := range cands {
		out[c.ID] = true
	}
	return out
}

func TestAllBaselinesContract(t *testing.T) {
	env := NewStaticEnv()
	allocators := []Allocator{
		NewRandom(stats.NewRNG(1)),
		NewRoundRobin(),
		NewCapacity(),
		NewEconomic(stats.NewRNG(2)),
	}
	for _, a := range allocators {
		t.Run(a.Name(), func(t *testing.T) {
			cands := snaps(0.1, 0.9, 0.5, 0.3, 0.7)
			for n := 1; n <= 7; n++ {
				out := allocate(t, a, env, q(n), cands)
				if out == nil {
					t.Fatalf("nil allocation for n=%d", n)
				}
				want := n
				if want > len(cands) {
					want = len(cands)
				}
				checkContract(t, out, want, idSet(cands))
			}
			if out := allocate(t, a, env, q(1), nil); out != nil {
				t.Errorf("empty candidates should yield nil, got %v", out)
			}
		})
	}
}

func TestCapacityPicksLeastUtilized(t *testing.T) {
	a := NewCapacity()
	out := allocate(t, a, NewStaticEnv(), q(2), snaps(0.9, 0.1, 0.5, 0.05))
	want := []model.ProviderID{3, 1}
	for i, p := range want {
		if out.Selected[i] != p {
			t.Fatalf("Selected = %v, want %v", out.Selected, want)
		}
	}
}

func TestCapacityTieBreaking(t *testing.T) {
	cands := []model.ProviderSnapshot{
		{ID: 4, Utilization: 0.5, QueueLen: 3, PendingWork: 9},
		{ID: 2, Utilization: 0.5, QueueLen: 1, PendingWork: 5},
		{ID: 7, Utilization: 0.5, QueueLen: 1, PendingWork: 2},
		{ID: 1, Utilization: 0.5, QueueLen: 1, PendingWork: 2},
	}
	out := allocate(t, NewCapacity(), NewStaticEnv(), q(3), cands)
	want := []model.ProviderID{1, 7, 2}
	for i, p := range want {
		if out.Selected[i] != p {
			t.Fatalf("Selected = %v, want %v", out.Selected, want)
		}
	}
}

func TestCapacityDoesNotMutateInput(t *testing.T) {
	cands := snaps(0.9, 0.1)
	allocate(t, NewCapacity(), NewStaticEnv(), q(1), cands)
	if cands[0].ID != 0 || cands[1].ID != 1 {
		t.Error("candidate order mutated")
	}
}

func TestRoundRobinCycles(t *testing.T) {
	a := NewRoundRobin()
	env := NewStaticEnv()
	cands := snaps(0, 0, 0)
	counts := map[model.ProviderID]int{}
	for i := 0; i < 9; i++ {
		out := allocate(t, a, env, q(1), cands)
		counts[out.Selected[0]]++
	}
	for id, c := range counts {
		if c != 3 {
			t.Errorf("provider %d served %d queries, want 3 (rotation broken)", id, c)
		}
	}
}

func TestRandomIsRoughlyUniform(t *testing.T) {
	a := NewRandom(stats.NewRNG(5))
	env := NewStaticEnv()
	cands := snaps(0, 0, 0, 0)
	counts := map[model.ProviderID]int{}
	const trials = 20000
	for i := 0; i < trials; i++ {
		out := allocate(t, a, env, q(1), cands)
		counts[out.Selected[0]]++
	}
	for id, c := range counts {
		if c < trials/4-trials/20 || c > trials/4+trials/20 {
			t.Errorf("provider %d served %d, want ~%d", id, c, trials/4)
		}
	}
}

func TestEconomicPicksCheapest(t *testing.T) {
	env := NewStaticEnv()
	env.BidTable[0] = 30
	env.BidTable[1] = 10
	env.BidTable[2] = 20
	a := NewEconomic(stats.NewRNG(1))
	a.BidSample = 3
	out := allocate(t, a, env, q(1), snaps(0, 0, 0))
	if len(out.Selected) != 1 || out.Selected[0] != 1 {
		t.Fatalf("Selected = %v, want [1]", out.Selected)
	}
	// All three bidders were contacted → proposed.
	if len(out.Proposed) != 3 {
		t.Fatalf("Proposed = %v, want all 3 bidders", out.Proposed)
	}
	// Scores are negated bids, best (cheapest) first.
	if out.Scores[0] != -10 {
		t.Errorf("Scores[0] = %v, want -10", out.Scores[0])
	}
}

func TestEconomicBidSampleBounds(t *testing.T) {
	env := NewStaticEnv()
	a := NewEconomic(stats.NewRNG(3))
	a.BidSample = 2
	// Sample must be raised to cover q.N.
	out := allocate(t, a, env, q(4), snaps(0, 0, 0, 0, 0, 0))
	if len(out.Selected) != 4 {
		t.Fatalf("Selected = %v, want 4 providers", out.Selected)
	}
	if len(out.Proposed) < 4 {
		t.Fatalf("Proposed = %v, want >= 4 bidders", out.Proposed)
	}
	// Zero BidSample falls back to the default.
	a2 := NewEconomic(stats.NewRNG(4))
	a2.BidSample = 0
	out2 := allocate(t, a2, env, q(1), snaps(make([]float64, 30)...))
	if len(out2.Proposed) != DefaultBidSample {
		t.Errorf("default bid sample = %d, want %d", len(out2.Proposed), DefaultBidSample)
	}
}

func TestEconomicDefaultBidIsExpectedDelay(t *testing.T) {
	env := NewStaticEnv() // no explicit bids
	cands := []model.ProviderSnapshot{
		{ID: 0, Capacity: 1, PendingWork: 50},
		{ID: 1, Capacity: 10, PendingWork: 0},
	}
	a := NewEconomic(stats.NewRNG(1))
	a.BidSample = 2
	out := allocate(t, a, env, q(1), cands)
	if out.Selected[0] != 1 {
		t.Errorf("fast idle provider should win the auction, got %v", out.Selected)
	}
}

func TestNilRNGConstructors(t *testing.T) {
	if NewRandom(nil) == nil || NewEconomic(nil) == nil {
		t.Error("nil-rng constructors failed")
	}
}
