package sbqa

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestFacadeSymbolSmoke exercises every symbol re-exported by sbqa.go at
// least once — type aliases by declaration, constructors and functions by
// call — so any drift between the facade and the internal packages fails
// this test (or its compilation) instead of a downstream embedder.
func TestFacadeSymbolSmoke(t *testing.T) {
	// Domain model aliases.
	var (
		_ ConsumerID       = 0
		_ ProviderID       = 0
		_ QueryID          = 0
		_ Intention        = 0.5
		_ Query            = Query{Consumer: 0, N: 1, Work: 1}
		_ ProviderSnapshot = ProviderSnapshot{}
		_ Allocation
	)

	// Allocators.
	var allocators = []Allocator{
		NewSbQA(SbQAConfig{}),
		NewCapacityAllocator(),
		NewEconomicAllocator(1),
		NewRandomAllocator(2),
		NewRoundRobinAllocator(),
		NewShareBasedAllocator(),
	}
	for _, a := range allocators {
		if a.Name() == "" {
			t.Error("allocator without a name")
		}
	}
	if _, err := NewSbQAChecked(SbQAConfig{KnBest: KnBestParams{K: 2, Kn: 9}}); err == nil {
		t.Error("NewSbQAChecked accepted kn > k")
	}
	if NewSbQA(SbQAConfig{Omega: FixedOmega(0.5)}) == nil {
		t.Error("FixedOmega config rejected")
	}
	var _ Env // allocators consult the batched mediation environment
	var _ SbQA

	// Env protocol surface: the table-backed StaticEnv serves the batched
	// protocol, preserving values exactly.
	tables := NewStaticEnv()
	tables.SetCI(0, 7, 0.25)
	tables.SetPI(7, 0, -0.5)
	var env Env = tables
	set, err := env.Intentions(context.Background(), Query{Consumer: 0, N: 1, Work: 1},
		[]ProviderSnapshot{{ID: 7, Capacity: 1}})
	if err != nil || set.Len() != 1 || set.CI[0] != 0.25 || set.PI[0] != -0.5 {
		t.Errorf("StaticEnv.Intentions = %+v, %v", set, err)
	}
	if set.ImputedCount() != 0 || set.ProviderImputed(0) {
		t.Errorf("table batch marked imputed: %+v", set)
	}
	var _ IntentionSet = set
	var (
		_ ConsumerParticipant
		_ ProviderParticipant
		_ BidderParticipant
		_ Imputation
	)

	// Scoring and satisfaction.
	if Omega(0.5, 0.5) != 0.5 {
		t.Error("Omega broken")
	}
	var _ *Scorer = NewScorer()
	var _ *ConsumerTracker = NewConsumerTracker(5)
	var _ *ProviderTracker = NewProviderTracker(5)
	var _ *SatisfactionRegistry = NewSatisfactionRegistry(5)

	// Intention policies.
	var (
		_ ConsumerPolicy = PreferenceConsumer{}
		_ ConsumerPolicy = ReputationBlendConsumer{}
		_ ConsumerPolicy = ResponseTimeConsumer{}
		_ ConsumerPolicy = AdaptiveConsumer{}
		_ ProviderPolicy = PreferenceProvider{}
		_ ProviderPolicy = LoadOnlyProvider{}
		_ ProviderPolicy = BlendProvider{}
		_ ProviderPolicy = AdaptiveProvider{}
		_ ConsumerInputs
		_ ProviderInputs
	)

	// Mediation pipeline.
	med := NewMediator(NewCapacityAllocator(), MediatorConfig{Window: 10})
	var _ *Mediator = med
	var _ Consumer = consumerStub{}
	var _ Provider = providerStub{}
	dir := NewDirectory()
	var _ *ProviderDirectory = dir
	var _ CapabilityReporter
	med.RegisterConsumer(consumerStub{id: 0})
	if _, err := med.Mediate(context.Background(), 0, Query{Consumer: 0, N: 1, Work: 1}); !errors.Is(err, ErrNoCandidates) {
		t.Errorf("err = %v, want ErrNoCandidates", err)
	}
	if errors.Is(ErrStaleSelection, ErrNoCandidates) {
		t.Error("stale selection must stay distinct from no-candidates")
	}

	// Simulation world & experiments (construction only; runs are covered
	// by the scenario tests).
	cfg := DefaultWorldConfig(10, 1)
	cfg.Mode = Captive
	if cfg.Mode == Autonomous {
		t.Error("mode constants collide")
	}
	if _, err := NewWorld(NewCapacityAllocator(), cfg); err != nil {
		t.Fatal(err)
	}
	var (
		_ *World
		_ WorldConfig    = cfg
		_ WorldMode      = Captive
		_ WorkloadConfig = cfg.Workload
		_ ProjectSpec
		_ Popularity = Popular
		_ Popularity = Normal
		_ Popularity = Unpopular
		_ RunResult
		_ ResultTable
		_ ExperimentOptions
		_ *ScenarioResult
	)
	scenarios := []func(ExperimentOptions) (*ScenarioResult, error){
		Scenario1, Scenario2, Scenario3, Scenario4, Scenario5, Scenario6, Scenario7,
		MotivatingExample, MaliciousStudy, ReplicationStudy, AdWordsStudy,
	}
	for i, fn := range scenarios {
		if fn == nil {
			t.Errorf("scenario %d is nil", i)
		}
	}
	_ = RunAllScenarios // exercised (expensively) by TestPublicScenarioAndRender
	_ = RenderScenarios // ditto

	// Topics / AdWords.
	v := TopicVector{1, 0}
	if TopicPreference(v, v) <= 0 {
		t.Error("TopicPreference of identical vectors must be positive")
	}
	var _ *TopicInterests = NewTopicInterests(v)
	var (
		_ TopicCampaign
		_ *AdWorld
		_ AdWorldConfig
		_ Advertiser
	)
	_ = NewAdWorld

	// Live runtime participants.
	var (
		_ LiveResult
		_ LiveFuncConsumer
		_ *LiveWorker
		_ LiveExecutor = (*LiveWorker)(nil)
	)
	_ = WithParticipantDeadline(time.Millisecond) // v2 fan-out option

	// Policy control plane.
	var _ PolicyKind = PolicySbQA
	for _, k := range []PolicyKind{PolicyCapacity, PolicyEconomic, PolicyRandom, PolicyRoundRobin, PolicyShareBased} {
		if _, err := (PolicySpec{Kind: k}).Build(0); err != nil {
			t.Errorf("PolicySpec{%q}.Build: %v", k, err)
		}
	}
	if len(PolicyKinds()) != 6 {
		t.Errorf("PolicyKinds() = %v, want all 6 kinds", PolicyKinds())
	}
	def := DefaultPolicy()
	if err := def.Validate(); err != nil {
		t.Errorf("DefaultPolicy invalid: %v", err)
	}
	var _ PolicyOmegaMode = PolicyOmegaAdaptive
	var _ PolicyOmegaMode = PolicyOmegaFixed
	var _ PolicyDuration = PolicyDuration(time.Millisecond)
	var _ PolicyChange
	if _, err := ParsePolicy([]byte(`{"kind":"sbqa","k":4,"kn":2}`)); err != nil {
		t.Errorf("ParsePolicy: %v", err)
	}
	var _ *StaticEnv = NewStaticEnv()
	var (
		_ *Tuner
		_ TunerConfig
		_ TunerStats
	)
	_ = WithPolicy
	_ = WithTuner
	_ = NewTuner

	// Durability surface.
	var (
		_ PersistenceStats
		_ RestoreStats
	)
	if ErrPersistCorrupt == nil {
		t.Error("ErrPersistCorrupt is nil")
	}
	_ = WithPersistence
	_ = PersistSyncEvery
	_ = PersistSegmentBytes
	_ = PersistQueueDepth
	_ = PersistCompactAfterSegments
	_ = PersistCompactInterval
}

// TestFacadePersistenceFlow drives the durability surface through the
// facade: a persistent engine accumulates state, closes gracefully, and a
// second engine over the same directory restores it.
func TestFacadePersistenceFlow(t *testing.T) {
	dir := t.TempDir()
	build := func() *Engine {
		eng, err := NewEngine(
			WithWindow(10),
			WithPolicy(PolicySpec{Kind: PolicySbQA, K: 4, Kn: 2, Seed: 1}),
			WithClock(func() float64 { return 1 }),
			WithPersistence(dir, PersistSyncEvery(1), PersistQueueDepth(128)),
		)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	eng := build()
	w, err := NewLiveWorker(1, 100, 4, func(Query) Intention { return 0.5 })
	if err != nil {
		t.Fatal(err)
	}
	eng.RegisterWorker(w)
	eng.RegisterConsumer(LiveFuncConsumer{ID: 0, Fn: func(Query, ProviderSnapshot) Intention { return 0.7 }})
	tk := eng.Submit(context.Background(), Query{Consumer: 0, N: 1, Work: 1})
	if _, err := tk.Await(context.Background()); err != nil {
		t.Fatal(err)
	}
	before := eng.ConsumerSatisfaction(0)
	st := eng.Stats()
	if st.Persistence == nil {
		t.Fatal("EngineStats.Persistence nil with WithPersistence")
	}
	eng.Close()
	w.Close()

	eng2 := build()
	defer eng2.Close()
	st2 := eng2.Stats()
	if st2.Persistence == nil || !st2.Persistence.Restore.SnapshotLoaded {
		t.Fatal("facade restart did not restore a snapshot")
	}
	if got := eng2.ConsumerSatisfaction(0); got != before {
		t.Errorf("restored consumer δs %v, want %v", got, before)
	}
}

// TestFacadePolicyFlow drives the control plane through the facade: a
// policy-built engine, a hot Reconfigure observed as a typed event, and a
// standalone tuner bound through the public Reconfigurer surface.
func TestFacadePolicyFlow(t *testing.T) {
	var changes int
	eng, err := NewEngine(
		WithWindow(10),
		WithPolicy(PolicySpec{Kind: PolicySbQA, K: 4, Kn: 2, Seed: 1}),
		WithObserver(ObserverFuncs{PolicyChange: func(pc PolicyChange) {
			if pc.Generation == 1 && pc.Kind == string(PolicyCapacity) {
				changes++
			}
		}}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var _ Reconfigurer = eng
	if _, ok := eng.Policy(); !ok {
		t.Fatal("policy-built engine reports no policy")
	}
	if err := eng.Reconfigure(context.Background(), PolicySpec{Kind: PolicyCapacity}); err != nil {
		t.Fatal(err)
	}
	if changes != 1 {
		t.Fatalf("PolicyChange events = %d, want 1", changes)
	}
	if spec, _ := eng.Policy(); spec.Kind != PolicyCapacity {
		t.Fatalf("Policy() = %+v after reconfigure", spec)
	}
	if eng.PolicyGeneration() != 1 {
		t.Fatalf("PolicyGeneration() = %d, want 1", eng.PolicyGeneration())
	}

	tu := NewTuner(eng, TunerConfig{})
	tu.Observe(SatisfactionSnapshot{Time: 1})
	if st := tu.Stats(); st.Snapshots != 0 && st.Dropped == 0 {
		t.Fatalf("unexpected tuner stats before start: %+v", st)
	}
	tu.Close()
}

// TestFacadeEngineFlow drives the engine surface end to end through the
// facade: functional options, observer, ticket submission, typed dispatch
// errors, stats.
func TestFacadeEngineFlow(t *testing.T) {
	var events int
	obs := ObserverFuncs{Allocation: func(*Allocation, int) { events++ }}
	var _ Observer = NopObserver{}
	var _ SatisfactionSnapshot

	eng, err := NewEngine(
		WithWindow(20),
		WithConcurrency(1),
		WithAllocator(NewSbQA(SbQAConfig{KnBest: KnBestParams{K: 4, Kn: 2}, Seed: 3})),
		WithAnalyzeBest(true),
		WithClock(func() float64 { return 1 }),
		WithObserver(MultiObserver(obs, NopObserver{})),
		WithQueueDepth(64),
		WithSnapshotInterval(time.Hour), // wired, but never fires in-test
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var _ *Engine = eng

	w, err := NewLiveWorker(0, 1000, 16, func(Query) Intention { return 0.5 })
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	eng.RegisterWorker(w)
	eng.RegisterConsumer(LiveFuncConsumer{ID: 0, Fn: func(Query, ProviderSnapshot) Intention { return 0.5 }})

	results := make(chan LiveResult, 1)
	tk := eng.Submit(context.Background(), Query{Consumer: 0, N: 1, Work: 0.1}, WithResults(results))
	var _ *Ticket = tk
	a, err := tk.Allocation()
	if err != nil || len(a.Selected) != 1 {
		t.Fatalf("allocation %v err %v", a, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if rs, err := tk.Await(ctx); err != nil || len(rs) != 1 {
		t.Fatalf("await: %v %v", rs, err)
	}
	<-results // forwarded copy

	// Fire-and-forget option compiles and runs.
	tk2 := eng.Submit(context.Background(), Query{Consumer: 0, N: 1, Work: 0.1}, FireAndForget())
	if _, err := tk2.Allocation(); err != nil {
		t.Fatal(err)
	}

	var st EngineStats = eng.Stats()
	if st.Mediations() != 2 || len(st.Shards) != 1 {
		t.Errorf("stats = %+v, want 2 mediations on 1 shard", st)
	}
	var _ ShardStats = st.Shards[0]
	if events != 2 {
		t.Errorf("observer saw %d allocations, want 2", events)
	}

	// Typed dispatch error through the facade.
	w.Close()
	tk3 := eng.Submit(context.Background(), Query{Consumer: 0, N: 1, Work: 0.1})
	_, derr := tk3.Allocation()
	if !errors.Is(derr, ErrDispatch) {
		t.Fatalf("err = %v, want ErrDispatch", derr)
	}
	de, ok := AsDispatchError(derr)
	if !ok || len(de.Failed) != 1 {
		t.Fatalf("AsDispatchError = %v %v", de, ok)
	}
	var _ *DispatchError = de

	eng.Close()
	if _, err := eng.Submit(context.Background(), Query{Consumer: 0, N: 1, Work: 1}).Allocation(); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("post-close err = %v, want ErrEngineClosed", err)
	}
}
