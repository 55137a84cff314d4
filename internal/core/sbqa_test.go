package core

import (
	"context"
	"strings"
	"testing"

	"sbqa/internal/alloc"
	"sbqa/internal/knbest"
	"sbqa/internal/model"
)

// allocate runs one mediation with a background context, failing the test
// on protocol errors (StaticEnv never produces one).
func allocate(t *testing.T, s *SbQA, env alloc.Env, q model.Query, cands []model.ProviderSnapshot) *model.Allocation {
	t.Helper()
	a, err := s.Allocate(context.Background(), env, q, alloc.Snapshots(cands))
	if err != nil {
		t.Fatalf("Allocate error: %v", err)
	}
	return a
}

func snaps(utils ...float64) []model.ProviderSnapshot {
	out := make([]model.ProviderSnapshot, len(utils))
	for i, u := range utils {
		out[i] = model.ProviderSnapshot{ID: model.ProviderID(i), Utilization: u, Capacity: 1}
	}
	return out
}

func query(n int) model.Query { return model.Query{ID: 1, Consumer: 0, N: n, Work: 1} }

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{KnBest: knbest.Params{K: 2, Kn: 5}}); err == nil {
		t.Error("invalid KnBest accepted")
	}
	s, err := New(Config{})
	if err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	if s.params != knbest.DefaultParams() {
		t.Errorf("zero config params = %+v", s.params)
	}
	if !s.scorer.Adaptive() {
		t.Error("zero config should be adaptive (Omega 0 is ambiguous only if set explicitly negative)")
	}
}

func TestNewOmegaModes(t *testing.T) {
	fixed := MustNew(Config{Omega: FixedOmega(0.25)})
	if fixed.scorer.Adaptive() {
		t.Error("fixed omega should be fixed")
	}
	if !strings.Contains(fixed.Name(), "0.25") {
		t.Errorf("Name = %q", fixed.Name())
	}
	adaptive := MustNew(Config{})
	if !adaptive.scorer.Adaptive() {
		t.Error("nil Omega should be adaptive")
	}
	if adaptive.Name() != "SbQA" {
		t.Errorf("Name = %q", adaptive.Name())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic on invalid config")
		}
	}()
	MustNew(Config{KnBest: knbest.Params{K: 1, Kn: 9}})
}

func TestAllocateEmptyCandidates(t *testing.T) {
	s := MustNew(Config{Seed: 1})
	if got := allocate(t, s, alloc.NewStaticEnv(), query(1), nil); got != nil {
		t.Errorf("Allocate with no candidates = %v", got)
	}
}

func TestAllocateContract(t *testing.T) {
	s := MustNew(Config{KnBest: knbest.Params{K: 5, Kn: 3}, Seed: 7})
	env := alloc.NewStaticEnv()
	cands := snaps(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
	for n := 1; n <= 5; n++ {
		a := allocate(t, s, env, query(n), cands)
		if a == nil {
			t.Fatalf("nil allocation n=%d", n)
		}
		// Proposed = Kn (3 providers), Selected = min(n, kn).
		if len(a.Proposed) != 3 {
			t.Fatalf("proposed %d, want kn=3", len(a.Proposed))
		}
		wantSel := n
		if wantSel > 3 {
			wantSel = 3
		}
		if len(a.Selected) != wantSel {
			t.Fatalf("selected %d, want %d", len(a.Selected), wantSel)
		}
		if len(a.ConsumerIntentions) != 3 || len(a.ProviderIntentions) != 3 {
			t.Fatal("intentions not recorded for the whole proposed set")
		}
		// Literal scores are computed only where they are read: for a
		// sampled query, ranked best-first.
		if a.Scores != nil {
			t.Fatalf("unsampled query carries scores %v", a.Scores)
		}
		sampled := query(n)
		sampled.Trace.Sampled = true
		sa := allocate(t, s, env, sampled, cands)
		if len(sa.Scores) != 3 {
			t.Fatalf("sampled query: %d scores for 3 proposed", len(sa.Scores))
		}
		for i := 1; i < len(sa.Scores); i++ {
			if sa.Scores[i] > sa.Scores[i-1] {
				t.Fatalf("scores not descending: %v", sa.Scores)
			}
		}
		// Selected is the best-ranked prefix.
		for i, p := range a.Selected {
			if p != a.Proposed[i] {
				t.Fatalf("selected %v is not the best-ranked prefix of %v", a.Selected, a.Proposed)
			}
		}
	}
}

func TestAllocatePrefersMutualInterest(t *testing.T) {
	// Full population in play (k=kn=|P_q|), fixed ω=0.5: the provider with
	// mutual interest must win.
	s := MustNew(Config{KnBest: knbest.Params{K: 0, Kn: 0}, Omega: FixedOmega(0.5)})
	env := alloc.NewStaticEnv()
	env.SetCI(0, 0, -0.5)
	env.SetPI(0, 0, 0.9)
	env.SetCI(0, 1, 0.9)
	env.SetPI(1, 0, 0.8) // mutual interest
	env.SetCI(0, 2, 0.9)
	env.SetPI(2, 0, -1)
	a := allocate(t, s, env, query(1), snaps(0, 0, 0))
	if a.Selected[0] != 1 {
		t.Errorf("Selected = %v, want provider 1 (mutual interest)", a.Selected)
	}
}

func TestAllocateAdaptiveOmegaFavorsStarvedProvider(t *testing.T) {
	// Two providers equally liked by the consumer; provider 1 is deeply
	// dissatisfied and wants the query more. Adaptive ω must tip the scale.
	s := MustNew(Config{KnBest: knbest.Params{K: 0, Kn: 0}})
	env := alloc.NewStaticEnv()
	env.SetCI(0, 0, 0.6)
	env.SetCI(0, 1, 0.6)
	env.SetPI(0, 0, 0.4)
	env.SetPI(1, 0, 0.9)
	env.SatP[0] = 0.95
	env.SatP[1] = 0.05
	env.SatC[0] = 0.5
	a := allocate(t, s, env, query(1), snaps(0.5, 0.5))
	if a.Selected[0] != 1 {
		t.Errorf("Selected = %v, want starved provider 1", a.Selected)
	}
}

func TestAllocateKnBestLimitsContacts(t *testing.T) {
	s := MustNew(Config{KnBest: knbest.Params{K: 4, Kn: 2}, Seed: 3})
	env := alloc.NewStaticEnv()
	a := allocate(t, s, env, query(1), snaps(make([]float64, 100)...))
	if len(a.Proposed) != 2 {
		t.Errorf("proposed %d providers, want kn=2", len(a.Proposed))
	}
}

func TestAllocateStage2PrefersIdleProviders(t *testing.T) {
	// k = population, kn = 2: the two least-utilized providers are the only
	// ones proposed, regardless of intentions.
	s := MustNew(Config{KnBest: knbest.Params{K: 0, Kn: 2}})
	env := alloc.NewStaticEnv()
	cands := snaps(0.9, 0.1, 0.8, 0.2)
	a := allocate(t, s, env, query(1), cands)
	proposed := map[model.ProviderID]bool{}
	for _, p := range a.Proposed {
		proposed[p] = true
	}
	if !proposed[1] || !proposed[3] {
		t.Errorf("Proposed = %v, want the idle providers {1,3}", a.Proposed)
	}
}

// TestKnBestParamsFixedAtConstruction: a different kn is a different
// allocator — the one built with it proposes exactly kn providers.
func TestKnBestParamsFixedAtConstruction(t *testing.T) {
	s := MustNew(Config{KnBest: knbest.Params{K: 3, Kn: 1}, Seed: 1})
	if s.params != (knbest.Params{K: 3, Kn: 1}) {
		t.Errorf("params = %+v", s.params)
	}
	a := allocate(t, s, alloc.NewStaticEnv(), query(1), snaps(0, 0, 0, 0, 0))
	if len(a.Proposed) != 1 {
		t.Errorf("kn = 1 proposed %v", a.Proposed)
	}
}

// TestScorerFixedAtConstruction: ω and ε come from the config.
func TestScorerFixedAtConstruction(t *testing.T) {
	fixed := MustNew(Config{KnBest: knbest.Params{K: 6, Kn: 3}, Omega: FixedOmega(0.75), Seed: 1})
	if sc := fixed.scorer; sc.Adaptive() || sc.FixedOmega != 0.75 || sc.Epsilon != 1 {
		t.Fatalf("Omega 0.75, default ε: %+v", sc)
	}
	adaptive := MustNew(Config{KnBest: knbest.Params{K: 6, Kn: 3}, Epsilon: 0.25, Seed: 1})
	if sc := adaptive.scorer; !sc.Adaptive() || sc.Epsilon != 0.25 {
		t.Fatalf("adaptive ω, ε 0.25: %+v", sc)
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	env := alloc.NewStaticEnv()
	cands := snaps(0.5, 0.3, 0.9, 0.1, 0.7, 0.2)
	a := MustNew(Config{KnBest: knbest.Params{K: 3, Kn: 2}, Seed: 42})
	b := MustNew(Config{KnBest: knbest.Params{K: 3, Kn: 2}, Seed: 42})
	for i := 0; i < 50; i++ {
		qa := allocate(t, a, env, query(1), cands)
		qb := allocate(t, b, env, query(1), cands)
		if qa.Selected[0] != qb.Selected[0] {
			t.Fatalf("allocation diverged at round %d", i)
		}
	}
}
