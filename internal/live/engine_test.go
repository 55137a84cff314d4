package live

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sbqa/internal/alloc"
	"sbqa/internal/core"
	"sbqa/internal/knbest"
	"sbqa/internal/mediator"
	"sbqa/internal/model"
	"sbqa/internal/policy"
)

// constProvider is a provider with a state-independent snapshot, so
// mediation outcomes depend only on allocator and registry state — the
// determinism tests need repeatable snapshots, and the throughput paths use
// it to benchmark mediation without dispatch.
type constProvider struct {
	id   model.ProviderID
	pi   model.Intention
	util float64
}

func (p *constProvider) ProviderID() model.ProviderID { return p.id }
func (p *constProvider) Snapshot(float64) model.ProviderSnapshot {
	return model.ProviderSnapshot{ID: p.id, Utilization: p.util, Capacity: 1}
}
func (p *constProvider) Intention(model.Query) model.Intention { return p.pi }
func (p *constProvider) Bid(q model.Query) float64             { return q.Work }

// mustEngine builds an engine that closes with the test.
func mustEngine(t testing.TB, opts ...Option) *Engine {
	t.Helper()
	eng, err := NewEngine(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng
}

// capacityPolicy runs the capacity baseline: the engine under test when the
// allocation technique is beside the point.
var capacityPolicy = WithPolicy(policy.Spec{Kind: policy.Capacity})

// submit drives one query through the ticket pipeline and blocks for its
// mediation and hand-off; workers also deliver to results when it is not nil.
func submit(ctx context.Context, eng *Engine, q model.Query, results chan<- Result) (*model.Allocation, error) {
	return eng.Submit(ctx, q, WithResults(results)).Allocation()
}

// submitAll submits every query before it waits for any, so the tickets
// are in flight together, and returns their position-aligned outcomes.
func submitAll(ctx context.Context, eng *Engine, qs []model.Query, results chan<- Result) ([]*model.Allocation, []error) {
	tickets := make([]*Ticket, len(qs))
	for i, q := range qs {
		tickets[i] = eng.Submit(ctx, q, WithResults(results))
	}
	allocs := make([]*model.Allocation, len(qs))
	errs := make([]error, len(qs))
	for i, tk := range tickets {
		allocs[i], errs[i] = tk.Allocation()
	}
	return allocs, errs
}

func sbqaAllocator(seed uint64) alloc.Allocator {
	c := core.Config{Seed: 1}
	c.KnBest = knbest.Params{K: 6, Kn: 3}
	c.Seed = seed
	return core.MustNew(c)
}

// TestSingleShardByteIdenticalToSerializedMediator drives tickets through a
// one-shard engine and a plain serialized mediator.Mediator with identical
// inputs (same allocator seed, same query IDs, same fake clock) and requires
// byte-identical allocations — the contract that queueing and sharding
// changed nothing about single-lane semantics.
func TestSingleShardByteIdenticalToSerializedMediator(t *testing.T) {
	const (
		window    = 40
		providers = 10
		queries   = 200
		consumers = 3
	)
	newConsumer := func(id model.ConsumerID) FuncConsumer {
		return FuncConsumer{ID: id, Fn: func(q model.Query, snap model.ProviderSnapshot) model.Intention {
			// Deterministic, provider- and consumer-dependent preference.
			return model.Intention(float64((int(snap.ID)+int(id))%5)/5 - 0.2)
		}}
	}

	// Reference: the serialized pipeline, driven directly.
	ref := mediator.New(sbqaAllocator(42), mediator.Config{Window: window})
	for c := 0; c < consumers; c++ {
		ref.RegisterConsumer(newConsumer(model.ConsumerID(c)))
	}
	for i := 0; i < providers; i++ {
		ref.RegisterProvider(&constProvider{
			id: model.ProviderID(i), pi: model.Intention(float64(i%7)/7 - 0.3), util: float64(i%4) / 4,
		})
	}

	// Engine: one shard, fake clock.
	var clock atomic.Int64 // hundredths of a second
	eng := mustEngine(t,
		WithWindow(window),
		WithConcurrency(1),
		WithPolicy(sbqaSpec(42)),
		WithClock(func() float64 { return float64(clock.Load()) / 100 }),
	)
	for c := 0; c < consumers; c++ {
		eng.RegisterConsumer(newConsumer(model.ConsumerID(c)))
	}
	for i := 0; i < providers; i++ {
		eng.RegisterProvider(&constProvider{
			id: model.ProviderID(i), pi: model.Intention(float64(i%7)/7 - 0.3), util: float64(i%4) / 4,
		})
	}

	for i := 0; i < queries; i++ {
		clock.Store(int64(i))
		now := float64(i) / 100
		q := model.Query{Consumer: model.ConsumerID(i % consumers), N: 1 + i%2, Work: 1 + float64(i%3)}

		refQ := q
		refQ.ID = model.QueryID(i + 1) // engine assigns 1-based sequential IDs
		refQ.IssuedAt = now
		wantA, wantErr := ref.Mediate(context.Background(), now, refQ)

		gotA, gotErr := submit(context.Background(), eng, q, nil)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("query %d: err %v vs %v", i, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		want := fmt.Sprintf("%+v", *wantA)
		got := fmt.Sprintf("%+v", *gotA)
		if want != got {
			t.Fatalf("query %d allocation diverged:\nserialized: %s\nengine:     %s", i, want, got)
		}
	}
	// Satisfaction state identical afterwards.
	for c := 0; c < consumers; c++ {
		if a, b := ref.Registry().ConsumerSatisfaction(model.ConsumerID(c)), eng.ConsumerSatisfaction(model.ConsumerID(c)); a != b {
			t.Errorf("consumer %d δs: %v vs %v", c, a, b)
		}
	}
	for p := 0; p < providers; p++ {
		if a, b := ref.Registry().ProviderSatisfaction(model.ProviderID(p)), eng.ProviderSatisfaction(model.ProviderID(p)); a != b {
			t.Errorf("provider %d δs: %v vs %v", p, a, b)
		}
	}
}

// TestShardedSubmitDispatches: tickets in flight together on several shards
// reach real workers and every result comes back.
func TestShardedSubmitDispatches(t *testing.T) {
	eng := mustEngine(t,
		WithWindow(50),
		WithConcurrency(4),
		WithPolicy(sbqaSpec(1)),
	)
	const workers = 6
	for i := 0; i < workers; i++ {
		w, err := NewWorker(model.ProviderID(i), 1000, 256, func(model.Query) model.Intention { return 0.5 })
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		eng.RegisterWorker(w)
	}
	const consumers = 8
	for c := 0; c < consumers; c++ {
		eng.RegisterConsumer(FuncConsumer{ID: model.ConsumerID(c), Fn: func(model.Query, model.ProviderSnapshot) model.Intention { return 0.3 }})
	}
	queries := make([]model.Query, 64)
	for i := range queries {
		queries[i] = model.Query{Consumer: model.ConsumerID(i % consumers), N: 1, Work: 0.5}
	}
	results := make(chan Result, len(queries))
	allocs, errs := submitAll(context.Background(), eng, queries, results)
	seen := map[model.QueryID]bool{}
	for i := range queries {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		if allocs[i] == nil || len(allocs[i].Selected) != 1 {
			t.Fatalf("query %d: allocation %v", i, allocs[i])
		}
		if id := allocs[i].Query.ID; id < 1 || seen[id] {
			t.Errorf("query %d: bad or duplicate ID %d", i, id)
		} else {
			seen[id] = true
		}
	}
	for i := 0; i < len(queries); i++ {
		select {
		case <-results:
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out after %d results", i)
		}
	}
}

// TestClassRestrictedWorkers: SetClasses feeds the directory's capability
// index; queries of other classes never reach the specialist.
func TestClassRestrictedWorkers(t *testing.T) {
	eng := mustEngine(t, WithPolicy(policy.Spec{Kind: policy.SbQA}), WithWindow(50))
	gen, err := NewWorker(0, 1000, 64, func(model.Query) model.Intention { return 0.2 })
	if err != nil {
		t.Fatal(err)
	}
	defer gen.Close()
	spec, err := NewWorker(1, 1000, 64, func(model.Query) model.Intention { return 0.9 })
	if err != nil {
		t.Fatal(err)
	}
	defer spec.Close()
	spec.SetClasses(1)
	eng.RegisterWorker(gen)
	eng.RegisterWorker(spec)
	eng.RegisterConsumer(FuncConsumer{ID: 0, Fn: func(model.Query, model.ProviderSnapshot) model.Intention { return 0.5 }})

	results := make(chan Result, 8)
	// Class-0 queries can only land on the generalist.
	for i := 0; i < 4; i++ {
		a, err := submit(context.Background(), eng, model.Query{Consumer: 0, Class: 0, N: 1, Work: 1}, results)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Selected) != 1 || a.Selected[0] != 0 {
			t.Fatalf("class-0 query reached specialist: %v", a.Selected)
		}
	}
	// Class-1 queries see both candidates.
	a, err := submit(context.Background(), eng, model.Query{Consumer: 0, Class: 1, N: 2, Work: 1}, results)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Selected) != 2 {
		t.Fatalf("class-1 query selected %v, want both workers", a.Selected)
	}
}

func TestNewEngineShardValidation(t *testing.T) {
	if eng, err := NewEngine(WithConcurrency(4)); err == nil {
		eng.Close()
		t.Error("engine without a policy or an allocator factory accepted")
	}
	eng := mustEngine(t, WithConcurrency(3), capacityPolicy)
	if eng.Shards() != 3 {
		t.Errorf("Shards = %d", eng.Shards())
	}
	if mustEngine(t, capacityPolicy, WithWindow(10)).Shards() != 1 {
		t.Error("the default engine should build a single shard")
	}
}

// unregisterOnAllocate unregisters every provider it selects and registers a
// fresh replacement, forcing the whole selection stale on every mediation
// attempt — the registration race the engine must report as a dispatch-level
// failure.
type unregisterOnAllocate struct {
	inner alloc.Allocator
	eng   *Engine
	next  int64
}

// A custom allocator reaches an engine the way an embedder's does: as a
// registered policy kind.
const staleKind policy.Kind = "unregister-on-allocate"

func init() {
	policy.Register(staleKind, nil,
		func(policy.Spec) error { return nil },
		func(policy.Spec, int) (alloc.Allocator, error) {
			return &unregisterOnAllocate{inner: alloc.NewCapacity(), next: 100}, nil
		})
}

// staleEngine is a single-shard engine whose every selection goes stale.
func staleEngine(t *testing.T) *Engine {
	eng := mustEngine(t, WithWindow(10), WithPolicy(policy.Spec{Kind: staleKind}))
	eng.shards[0].med.Allocator().(*unregisterOnAllocate).eng = eng
	return eng
}

func (u *unregisterOnAllocate) Name() string { return "unregister-on-allocate" }
func (u *unregisterOnAllocate) Allocate(ctx context.Context, e alloc.Env, q model.Query, cands alloc.Source) (*model.Allocation, error) {
	a, err := u.inner.Allocate(ctx, e, q, cands)
	if a != nil {
		for _, id := range a.Selected {
			u.eng.Directory().UnregisterProvider(id)
		}
	}
	u.next++
	u.eng.RegisterProvider(&constProvider{id: model.ProviderID(u.next), pi: 0.5})
	return a, err
}

// TestSubmitStaleSelectionIsDispatchError: when churn empties a mediated
// selection before hand-off, Submit reports the engine's retryable dispatch
// failure (wrapping mediator.ErrStaleSelection) — never ErrNoCandidates,
// because capacity existed throughout.
func TestSubmitStaleSelectionIsDispatchError(t *testing.T) {
	eng := staleEngine(t)
	eng.RegisterProvider(&constProvider{id: 1, pi: 0.5})
	eng.RegisterConsumer(FuncConsumer{ID: 0, Fn: func(model.Query, model.ProviderSnapshot) model.Intention { return 0.5 }})

	_, err := submit(context.Background(), eng, model.Query{Consumer: 0, N: 1, Work: 1}, nil)
	if !errors.Is(err, ErrDispatch) {
		t.Fatalf("err = %v, want ErrDispatch", err)
	}
	if !errors.Is(err, mediator.ErrStaleSelection) {
		t.Errorf("err = %v, should wrap mediator.ErrStaleSelection", err)
	}
}

// TestSubmitCancelledContext: a done context aborts the mediation itself —
// the query is rejected with the bare context error before any intention is
// collected or any worker contacted, and no allocation is produced.
func TestSubmitCancelledContext(t *testing.T) {
	eng := mustEngine(t, WithPolicy(policy.Spec{Kind: policy.SbQA}), WithWindow(10))
	w, err := NewWorker(1, 1000, 4, func(model.Query) model.Intention { return 0.5 })
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	eng.RegisterWorker(w)
	eng.RegisterConsumer(FuncConsumer{ID: 0, Fn: func(model.Query, model.ProviderSnapshot) model.Intention { return 0.5 }})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a, err := submit(ctx, eng, model.Query{Consumer: 0, N: 1, Work: 1}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if errors.Is(err, ErrDispatch) {
		t.Errorf("err = %v: a canceled mediation must not read as a dispatch failure", err)
	}
	if a != nil {
		t.Errorf("allocation = %v, want nil (mediation never ran)", a)
	}
	// The rejection is visible in the shard counters.
	if got := eng.Stats().Shards[0].Rejections; got != 1 {
		t.Errorf("rejections = %d, want 1", got)
	}
}

// TestShardRouting: concurrent submitters across many consumers all
// complete, and every consumer's satisfaction window fills — each consumer's
// stream serializes on its home shard while shards run in parallel.
func TestShardRouting(t *testing.T) {
	eng := mustEngine(t,
		WithWindow(20),
		WithConcurrency(4),
		capacityPolicy,
	)
	for i := 0; i < 8; i++ {
		eng.RegisterProvider(&constProvider{id: model.ProviderID(i), pi: 0.5})
	}
	const consumers = 16
	for c := 0; c < consumers; c++ {
		eng.RegisterConsumer(FuncConsumer{ID: model.ConsumerID(c), Fn: func(model.Query, model.ProviderSnapshot) model.Intention { return 0.5 }})
	}
	var wg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := submit(context.Background(), eng, model.Query{Consumer: model.ConsumerID(c), N: 1, Work: 1}, nil); err != nil {
					t.Errorf("consumer %d: %v", c, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Every consumer recorded all 50 outcomes in its window.
	for c := 0; c < consumers; c++ {
		if n := eng.Registry().Consumer(model.ConsumerID(c)).Interactions(); n != 20 {
			t.Errorf("consumer %d interactions = %d, want full window 20", c, n)
		}
	}
}
