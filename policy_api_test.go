package sbqa

// Scenario 6 of the demo ("tuning SbQA to the application via kn and ω")
// replayed through the *public* control plane: engines are built from
// declarative PolicySpecs, the ω sweep runs as a sequence of policies, and
// the mid-run retune happens through Engine.Reconfigure — no reaching into
// core.SbQA internals, which is exactly what the policy API replaces.

import (
	"context"
	"fmt"
	"testing"

	"sbqa/internal/live"
	"sbqa/internal/policy"
)

// sweepProvider is a public-API provider with conflicting interests: the
// consumer prefers low IDs (CI decreasing in ID) while providers' own
// willingness increases with ID (PI increasing in ID). The ω sweep must
// therefore trade consumer satisfaction against provider satisfaction
// exactly as the paper's Scenario 6b describes.
type sweepProvider struct {
	id ProviderID
}

func (p *sweepProvider) ProviderID() ProviderID { return p.id }
func (p *sweepProvider) Snapshot(float64) ProviderSnapshot {
	return ProviderSnapshot{ID: p.id, Utilization: 0.3, Capacity: 1}
}
func (p *sweepProvider) Intention(Query) Intention {
	return Intention(-0.8 + 1.7*float64(p.id)/7).Clamp()
}
func (p *sweepProvider) Bid(q Query) float64 { return q.Work }

// sweepConsumerFn prefers low provider IDs.
func sweepConsumerFn(_ Query, snap ProviderSnapshot) Intention {
	return Intention(1 - 0.25*float64(snap.ID)).Clamp()
}

// runSweepPoint mediates queries under one policy and returns the mean
// consumer and provider satisfactions afterwards.
func runSweepPoint(t *testing.T, spec PolicySpec, queries int) (satC, satP float64) {
	t.Helper()
	eng, err := NewEngine(WithWindow(50), WithPolicy(spec), live.WithClock(func() float64 { return 1 }))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.RegisterConsumer(LiveFuncConsumer{ID: 0, Fn: sweepConsumerFn})
	for i := 0; i < 8; i++ {
		eng.RegisterProvider(&sweepProvider{id: ProviderID(i)})
	}
	for i := 0; i < queries; i++ {
		if _, err := eng.Submit(context.Background(), Query{Consumer: 0, N: 1, Work: 1}).Allocation(); err != nil {
			t.Fatal(err)
		}
	}
	reg := eng.Registry()
	satC = reg.ConsumerSatisfaction(0)
	for i := 0; i < 8; i++ {
		satP += reg.ProviderSatisfaction(ProviderID(i))
	}
	return satC, satP / 8
}

// TestScenario6OmegaSweepThroughPolicyAPI reproduces the paper's ω trend
// from PolicySpecs alone: ω = 0 scores purely by consumer intentions
// (consumers win), ω = 1 purely by provider intentions (providers win), and
// the adaptive rule lands the system in between.
func TestScenario6OmegaSweepThroughPolicyAPI(t *testing.T) {
	fixed := func(omega float64) PolicySpec {
		return PolicySpec{Kind: PolicySbQA, K: 8, Kn: 8, OmegaMode: policy.OmegaFixed, Omega: omega, Seed: 5}
	}
	const queries = 120
	satC0, satP0 := runSweepPoint(t, fixed(0), queries)
	satC1, satP1 := runSweepPoint(t, fixed(1), queries)
	if satC0 <= satC1 {
		t.Errorf("ω=0 must favor consumers: δs(c) %.3f (ω=0) vs %.3f (ω=1)", satC0, satC1)
	}
	if satP1 <= satP0 {
		t.Errorf("ω=1 must favor providers: δs(p) %.3f (ω=1) vs %.3f (ω=0)", satP1, satP0)
	}
	adC, adP := runSweepPoint(t, PolicySpec{Kind: PolicySbQA, K: 8, Kn: 8, Seed: 5}, queries)
	if adC <= satC1 || adP <= satP0 {
		t.Errorf("adaptive ω should sit between the extremes: δs(c) %.3f, δs(p) %.3f (extremes c: %.3f/%.3f, p: %.3f/%.3f)",
			adC, adP, satC0, satC1, satP0, satP1)
	}
	t.Logf("ω sweep: δs(c) %.3f→%.3f, δs(p) %.3f→%.3f, adaptive (%.3f, %.3f)",
		satC0, satC1, satP0, satP1, adC, adP)
}

// TestScenario6MidRunReconfigure retunes kn mid-run through the public
// Reconfigure — the paper's "kn close to q.n makes the process a load
// balancer, kn = |P_q| a pure interest matcher" — and requires the
// consumer's satisfaction to improve once the funnel widens.
func TestScenario6MidRunReconfigure(t *testing.T) {
	eng, err := NewEngine(
		WithWindow(40),
		WithPolicy(PolicySpec{Name: "narrow", Kind: PolicySbQA, K: 1, Kn: 1, Seed: 11}),
		live.WithClock(func() float64 { return 1 }),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.RegisterConsumer(LiveFuncConsumer{ID: 0, Fn: sweepConsumerFn})
	for i := 0; i < 8; i++ {
		eng.RegisterProvider(&sweepProvider{id: ProviderID(i)})
	}
	submit := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := eng.Submit(context.Background(), Query{Consumer: 0, N: 1, Work: 1}).Allocation(); err != nil {
				t.Fatal(err)
			}
		}
	}
	submit(80)
	narrow := eng.ConsumerSatisfaction(0)

	wide := PolicySpec{Name: "matcher", Kind: PolicySbQA, K: 8, Kn: 8, OmegaMode: policy.OmegaFixed, Seed: 11}
	if err := eng.Reconfigure(context.Background(), wide); err != nil {
		t.Fatal(err)
	}
	submit(80)
	matched := eng.ConsumerSatisfaction(0)
	if matched <= narrow {
		t.Fatalf("widening kn did not improve the consumer: δs %.3f → %.3f", narrow, matched)
	}
	// With the full candidate set scored at ω=0, the consumer's favorite
	// provider wins every mediation.
	a, err := eng.Submit(context.Background(), Query{Consumer: 0, N: 1, Work: 1}).Allocation()
	if err != nil {
		t.Fatal(err)
	}
	if a.Selected[0] != 0 {
		t.Fatalf("interest matcher selected provider %d, want the consumer's favorite 0", a.Selected[0])
	}
	if st := eng.Stats(); st.PolicyGeneration != 1 || st.PolicySwaps() == 0 {
		t.Fatalf("reconfigure not reflected in stats: %+v", st)
	}
	t.Logf("kn retune: δs(c) %.3f (kn=1) → %.3f (kn=8)", narrow, matched)
}

// TestPolicyDeterminismAcrossReconfigureViaFacade: with one shard, two
// identical runs including an identical mid-run Reconfigure must produce
// byte-identical allocations — the epoch swap is invisible to determinism.
func TestPolicyDeterminismAcrossReconfigureViaFacade(t *testing.T) {
	run := func() []string {
		eng, err := NewEngine(
			WithWindow(30),
			WithPolicy(PolicySpec{Kind: PolicySbQA, K: 4, Kn: 2, Seed: 42}),
			live.WithClock(func() float64 { return 1 }),
		)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		eng.RegisterConsumer(LiveFuncConsumer{ID: 0, Fn: sweepConsumerFn})
		for i := 0; i < 8; i++ {
			eng.RegisterProvider(&sweepProvider{id: ProviderID(i)})
		}
		var out []string
		for i := 0; i < 120; i++ {
			if i == 60 {
				if err := eng.Reconfigure(context.Background(), PolicySpec{
					Kind: PolicySbQA, K: 8, Kn: 4, OmegaMode: policy.OmegaFixed, Omega: 0.5, Seed: 9,
				}); err != nil {
					t.Fatal(err)
				}
			}
			a, err := eng.Submit(context.Background(), Query{Consumer: 0, N: 1 + i%2, Work: 1}).Allocation()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, fmt.Sprintf("%+v", *a))
		}
		return out
	}
	first, second := run(), run()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("allocation %d diverged across identical runs:\n%s\n%s", i, first[i], second[i])
		}
	}
}
