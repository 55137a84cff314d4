package sbqa

import (
	"context"
	"math"
	"strings"
	"testing"

	"sbqa/internal/alloc"
	"sbqa/internal/core"
	"sbqa/internal/lab"
	"sbqa/internal/satisfaction"
	"sbqa/internal/score"
	"sbqa/internal/stats"
)

func TestPublicQuickstartFlow(t *testing.T) {
	// The README quickstart, as a test: build an allocator, a mediator,
	// register participants, mediate a query.
	allocator := NewSbQA(SbQAConfig{})
	med := NewMediator(allocator, MediatorConfig{Window: 50})

	med.RegisterConsumer(consumerStub{id: 0})
	for i := 0; i < 5; i++ {
		med.RegisterProvider(providerStub{id: ProviderID(i), pi: Intention(0.2 * float64(i+1))})
	}

	a, err := med.Mediate(context.Background(), 0, Query{Consumer: 0, N: 2, Work: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Selected) != 2 {
		t.Fatalf("selected %d providers", len(a.Selected))
	}
	if s := med.Registry().ConsumerSatisfaction(0); s <= 0 {
		t.Errorf("consumer satisfaction %v", s)
	}
}

type consumerStub struct{ id ConsumerID }

func (c consumerStub) ConsumerID() ConsumerID { return c.id }
func (c consumerStub) Intention(Query, ProviderSnapshot) Intention {
	return 0.5
}

type providerStub struct {
	id ProviderID
	pi Intention
}

func (p providerStub) ProviderID() ProviderID { return p.id }
func (p providerStub) Snapshot(float64) ProviderSnapshot {
	return ProviderSnapshot{ID: p.id, Capacity: 1}
}
func (p providerStub) Intention(Query) Intention { return p.pi }
func (p providerStub) Bid(q Query) float64       { return q.Work }

func TestPublicOmega(t *testing.T) {
	if got := score.Omega(0.5, 0.5); got != 0.5 {
		t.Errorf("Omega = %v", got)
	}
	if got := score.Omega(1, 0); got != 1 {
		t.Errorf("Omega = %v", got)
	}
}

func TestPublicScorer(t *testing.T) {
	s := score.NewScorer()
	if got := s.Score(1, 1, 0.5); math.Abs(got-1) > 1e-12 {
		t.Errorf("Score = %v", got)
	}
	if got := s.Score(-1, -1, 0.5); got >= 0 {
		t.Errorf("Score = %v, want negative", got)
	}
}

func TestPublicTrackers(t *testing.T) {
	ct := satisfaction.NewConsumer(10)
	ct.Record(1, 1, 1)
	if ct.Satisfaction() != 1 {
		t.Error("consumer tracker broken")
	}
	pt := satisfaction.NewProvider(10)
	pt.Record(1, true)
	if pt.Satisfaction() != 1 {
		t.Error("provider tracker broken")
	}
	reg := satisfaction.NewRegistry(10)
	if reg.ConsumerSatisfaction(3) != 0.5 {
		t.Error("registry broken")
	}
}

func TestPublicAllocatorConstructors(t *testing.T) {
	names := map[string]Allocator{
		"Capacity":   alloc.NewCapacity(),
		"Economic":   alloc.NewEconomic(stats.NewRNG(1)),
		"Random":     alloc.NewRandom(stats.NewRNG(2)),
		"RoundRobin": alloc.NewRoundRobin(),
	}
	for want, a := range names {
		if a.Name() != want {
			t.Errorf("Name = %q, want %q", a.Name(), want)
		}
	}
	if NewSbQA(SbQAConfig{}).Name() != "SbQA" {
		t.Error("SbQA name wrong")
	}
	fixed := NewSbQA(SbQAConfig{Omega: core.FixedOmega(0.5)})
	if !strings.Contains(fixed.Name(), "0.5") {
		t.Errorf("fixed-omega name = %q", fixed.Name())
	}
	if _, err := core.New(SbQAConfig{KnBest: KnBestParams{K: 1, Kn: 5}}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestPublicWorldRun(t *testing.T) {
	r, err := RunScenario(Volunteering(30, 200, 3))
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed == 0 {
		t.Fatal("no completions")
	}
	if r.Scenario.Policy.Kind != PolicySbQA {
		t.Errorf("technique = %q", r.Scenario.Policy.Kind)
	}
}

func TestPublicScenarioAndRender(t *testing.T) {
	res, err := lab.Scenario1(lab.Volunteering(25, 150, 5))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	res.Render(&sb)
	if !strings.Contains(sb.String(), "Scenario 1") {
		t.Error("render missing scenario heading")
	}
}

func TestPublicErrNoCandidates(t *testing.T) {
	med := NewMediator(alloc.NewCapacity(), MediatorConfig{Window: 10})
	med.RegisterConsumer(consumerStub{id: 0})
	if _, err := med.Mediate(context.Background(), 0, Query{Consumer: 0, N: 1, Work: 1}); err == nil {
		t.Error("want ErrNoCandidates")
	}
}

func TestPublicLabScenario(t *testing.T) {
	// The lab through the facade: a tiny world, run twice, byte-identical.
	sc := lab.Scenario{
		Name:     "facade-smoke",
		Seed:     9,
		Duration: 40,
		Policy:   PolicySpec{Kind: PolicySbQA, K: 6, Kn: 2, Seed: 9},
		Workload: lab.Workload{
			Classes: []lab.ClassSpec{{
				Name: "only", Consumers: 3, Providers: 12,
				Rate: 3,
				Cost: lab.CostSpec{Kind: "exp", Mean: 1.5},
			}},
		},
	}
	r1, err := lab.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := lab.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Issued == 0 || r1.Completed == 0 {
		t.Fatalf("empty run: %+v", r1)
	}
	h1, _ := r1.Hash()
	h2, _ := r2.Hash()
	if h1 == "" || h1 != h2 {
		t.Fatalf("lab determinism broken through facade: %q vs %q", h1, h2)
	}
	if lab.Full.String() != "full" || lab.Short.String() != "short" {
		t.Fatalf("scale strings: %q/%q", lab.Full, lab.Short)
	}
}
