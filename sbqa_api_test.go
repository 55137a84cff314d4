package sbqa

import (
	"context"
	"errors"
	"testing"
	"time"

	"sbqa/internal/live"
	"sbqa/internal/mediator"
	"sbqa/internal/policy"
)

// TestFacadeSymbolSmoke exercises the symbols sbqa.go re-exports that no
// flow test below reaches — type aliases by declaration, constructors and
// functions by call — so drift between the facade and the internal packages
// fails this test (or its compilation) instead of a downstream embedder.
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
		NewSbQA(SbQAConfig{KnBest: KnBestParams{K: 4, Kn: 2}}),
	}
	for _, a := range allocators {
		if a.Name() == "" {
			t.Error("allocator without a name")
		}
	}
	var _ SbQA

	// The table-backed StaticEnv serves the batched intention protocol,
	// preserving values exactly.
	tables := NewStaticEnv()
	var _ *StaticEnv = tables
	tables.SetCI(0, 7, 0.25)
	tables.SetPI(7, 0, -0.5)
	snaps := Snapshots{{ID: 7, Capacity: 1}}
	set, err := tables.Intentions(context.Background(), Query{Consumer: 0, N: 1, Work: 1}, snaps)
	if err != nil || set.Len() != 1 || set.CI[0] != 0.25 || set.PI[0] != -0.5 {
		t.Errorf("StaticEnv.Intentions = %+v, %v", set, err)
	}
	if set.ImputedCount() != 0 || set.ProviderImputed(0) {
		t.Errorf("table batch marked imputed: %+v", set)
	}
	var (
		_ ConsumerParticipant
		_ ProviderParticipant
		_ Imputation
	)

	// Mediation pipeline.
	med := NewMediator(NewSbQA(SbQAConfig{}), MediatorConfig{Window: 10})
	var _ *Mediator = med
	var _ Consumer = consumerStub{}
	var _ Provider = providerStub{}
	med.RegisterConsumer(consumerStub{id: 0})
	if _, err := med.Mediate(context.Background(), 0, Query{Consumer: 0, N: 1, Work: 1}); !errors.Is(err, mediator.ErrNoCandidates) {
		t.Errorf("err = %v, want ErrNoCandidates", err)
	}

	// Simulation: the BOINC preset as a lab scenario (construction only;
	// TestPublicWorldRun runs one).
	sc := Volunteering(10, 100, 1)
	sc.Workload.Volunteers.Projects = []ProjectSpec{{Popularity: Popular}, {Popularity: Normal}, {Popularity: Unpopular}}
	if sc.Workload.Volunteers.Autonomous {
		t.Error("the default world must be captive")
	}
	var _ = RunScenario

	// Live runtime participants.
	var (
		_ LiveResult
		_ LiveFuncConsumer
		_ *LiveWorker
		_ LiveExecutor = (*LiveWorker)(nil)
	)
	_ = WithQoSClass("batch")
	_ = WithDeadline(time.Second)

	// Policy control plane.
	for _, k := range []string{string(PolicySbQA), string(PolicyCapacity), string(PolicyEconomic)} {
		if _, err := ParsePolicy([]byte(`{"kind":"` + k + `"}`)); err != nil {
			t.Errorf("ParsePolicy(kind %q): %v", k, err)
		}
	}
	_ = WithTuner(TunerConfig{})

	// QoS: the default spec is what a limiter is built from.
	var spec QoSSpec = DefaultQoSSpec()
	var _ *QoSLimiter = NewQoSLimiter(spec, func() float64 { return 0 })
	if _, ok := AsShedError(errors.New("not a shed")); ok {
		t.Error("AsShedError matched a plain error")
	}
	var (
		_ *ShedError
		_ ShedEvent
		_ PeerChange
		_ SatisfactionSnapshot
	)

	// Cluster.
	ring := NewClusterRing([]string{"a", "b"}, 0)
	var _ *ClusterRing = ring
	node, err := NewClusterNode(ClusterConfig{Self: ClusterPeer{ID: "a"}})
	if err != nil {
		t.Fatal(err)
	}
	var _ *ClusterNode = node
	for _, s := range []string{ClusterForwardPath, ClusterForwardedFromHeader} {
		if s == "" {
			t.Error("empty cluster contract constant")
		}
	}
	var _ = ClusterFrame{Kind: ClusterFrameQuery}
	if ClusterFrameQuery == ClusterFrameConsumer || ClusterMaxFrameBody < 1 {
		t.Error("peer-link frame kinds collide or the frame holds nothing")
	}
	var _ ClusterFrameKind = ClusterFrameConsumer

	// Tracing.
	tc, ok := ParseTraceparent("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	if !ok || FormatTraceparent(tc) == "" {
		t.Errorf("traceparent round trip: %+v %v", tc, ok)
	}
	var _ TraceContext = tc
	if TraceNow() < 0 || len(TraceStageBuckets()) == 0 || TraceparentHeader == "" {
		t.Error("trace clock, buckets or header missing")
	}
	var (
		_ *TraceRecorder
		_ TraceView
		_ = TraceSpan{Name: StageAdmission}
		_ = TraceSpan{Name: StageForward}
	)
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
			live.WithClock(func() float64 { return 1 }),
			WithPersistence(dir, PersistSyncEvery(1)),
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
// standalone tuner stepped over the engine as its policy.Target.
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
	var _ policy.Target = eng
	if spec := eng.Policy(); spec.Kind != PolicySbQA || spec.K != 4 {
		t.Fatalf("Policy() = %+v at construction", spec)
	}
	if err := eng.Reconfigure(context.Background(), PolicySpec{Kind: PolicyCapacity}); err != nil {
		t.Fatal(err)
	}
	if changes != 1 {
		t.Fatalf("PolicyChange events = %d, want 1", changes)
	}
	if spec := eng.Policy(); spec.Kind != PolicyCapacity {
		t.Fatalf("Policy() = %+v after reconfigure", spec)
	}
	if eng.PolicyGeneration() != 1 {
		t.Fatalf("PolicyGeneration() = %d, want 1", eng.PolicyGeneration())
	}

	tu := policy.NewTuner(eng, TunerConfig{})
	tu.Step(time.Now(), SatisfactionSnapshot{Time: 1}, eng.QoSPressure())
	if st := tu.Stats(); st.Actions != 0 {
		t.Fatalf("tuner stats after one empty step: %+v", st)
	}
}

// TestFacadeEngineFlow drives the engine surface end to end through the
// facade: functional options, observer, ticket submission, typed dispatch
// errors, stats.
func TestFacadeEngineFlow(t *testing.T) {
	var events int
	obs := ObserverFuncs{Allocation: func(*Allocation, int) { events++ }}
	var _ Observer = obs
	var _ SatisfactionSnapshot

	eng, err := NewEngine(
		WithWindow(20),
		WithConcurrency(1),
		WithPolicy(PolicySpec{Kind: PolicySbQA, K: 4, Kn: 2, Seed: 3}),
		live.WithClock(func() float64 { return 1 }),
		WithObserver(obs),
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

	var st EngineStats = eng.Stats()
	if st.Mediations() != 1 || len(st.Shards) != 1 {
		t.Errorf("stats = %+v, want 1 mediation on 1 shard", st)
	}
	var _ ShardStats = st.Shards[0]
	if events != 1 {
		t.Errorf("observer saw %d allocations, want 1", events)
	}

	// Typed dispatch error through the facade.
	w.Close()
	tk3 := eng.Submit(context.Background(), Query{Consumer: 0, N: 1, Work: 0.1})
	_, derr := tk3.Allocation()
	if !errors.Is(derr, live.ErrDispatch) {
		t.Fatalf("err = %v, want ErrDispatch", derr)
	}
	var de *live.DispatchError
	if !errors.As(derr, &de) || len(de.Failed) != 1 {
		t.Fatalf("dispatch error = %v, want one failed worker", derr)
	}

	eng.Close()
	if _, err := eng.Submit(context.Background(), Query{Consumer: 0, N: 1, Work: 1}).Allocation(); !errors.Is(err, live.ErrEngineClosed) {
		t.Fatalf("post-close err = %v, want ErrEngineClosed", err)
	}
}
