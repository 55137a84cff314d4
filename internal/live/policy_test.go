package live

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sbqa/internal/core"
	"sbqa/internal/event"
	"sbqa/internal/knbest"
	"sbqa/internal/mediator"
	"sbqa/internal/model"
	"sbqa/internal/policy"
)

// sbqaSpec returns a small SbQA policy suited to the 10-provider fixtures.
func sbqaSpec(seed uint64) policy.Spec {
	return policy.Spec{Kind: policy.SbQA, K: 6, Kn: 3, Seed: seed}
}

func TestEngineFromPolicySpec(t *testing.T) {
	eng := mustEngine(t, WithWindow(20), WithPolicy(sbqaSpec(42)))
	spec := eng.Policy()
	if spec.Kind != policy.SbQA || spec.K != 6 || spec.Kn != 3 {
		t.Fatalf("Policy() = %+v", spec)
	}
	// Normalization filled the defaults in.
	if spec.OmegaMode != policy.OmegaAdaptive || spec.Epsilon == 0 {
		t.Fatalf("stored spec not normalized: %+v", spec)
	}
	if gen := eng.PolicyGeneration(); gen != 0 {
		t.Fatalf("generation = %d, want 0 at construction", gen)
	}
}

// TestPolicyBuiltEngineMatchesAllocatorBuilt: an engine built from a policy
// spec must allocate byte-identically to the equivalent hand-constructed
// core allocator driven by a bare serialized mediator.Mediator — a reference
// outside the policy plane (the spec replaces constructor plumbing, it does
// not change semantics).
func TestPolicyBuiltEngineMatchesAllocatorBuilt(t *testing.T) {
	omega := 0.3
	cases := []struct {
		name string
		spec policy.Spec
		cfg  core.Config
	}{
		{"adaptive", sbqaSpec(42), core.Config{KnBest: knbest.Params{K: 6, Kn: 3}, Seed: 42}},
		{"fixed omega", policy.Spec{Kind: policy.SbQA, K: 5, Kn: 2, OmegaMode: policy.OmegaFixed, Omega: omega, Epsilon: 0.5, Seed: 7},
			core.Config{KnBest: knbest.Params{K: 5, Kn: 2}, Omega: &omega, Epsilon: 0.5, Seed: 7}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := mediator.New(core.MustNew(tc.cfg), mediator.Config{Window: 30})
			got := mustEngine(t, WithWindow(30), WithPolicy(tc.spec), WithClock(func() float64 { return 1 }))
			for c := 0; c < 3; c++ {
				id := model.ConsumerID(c)
				consumer := FuncConsumer{ID: id, Fn: func(q model.Query, snap model.ProviderSnapshot) model.Intention {
					return model.Intention(float64((int(snap.ID)+int(id))%5)/5 - 0.2)
				}}
				ref.RegisterConsumer(consumer)
				got.RegisterConsumer(consumer)
			}
			for i := 0; i < 10; i++ {
				p := &constProvider{id: model.ProviderID(i), pi: model.Intention(float64(i%7)/7 - 0.3), util: float64(i%4) / 4}
				ref.RegisterProvider(p)
				got.RegisterProvider(p)
			}
			for i := 0; i < 100; i++ {
				q := model.Query{Consumer: model.ConsumerID(i % 3), N: 1 + i%2, Work: 1}
				refQ := q
				refQ.ID, refQ.IssuedAt = model.QueryID(i+1), 1 // what the engine stamps
				wantA, wantErr := ref.Mediate(context.Background(), 1, refQ)
				gotA, gotErr := submit(context.Background(), got, q, nil)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("query %d: err %v vs %v", i, wantErr, gotErr)
				}
				if wantErr != nil {
					continue
				}
				if want, g := fmt.Sprintf("%+v", *wantA), fmt.Sprintf("%+v", *gotA); want != g {
					t.Fatalf("query %d diverged:\nallocator-built: %s\npolicy-built:    %s", i, want, g)
				}
			}
		})
	}
}

func TestReconfigureSwapsAtMediationBoundary(t *testing.T) {
	var changes []event.PolicyChange
	var mu sync.Mutex
	spec := sbqaSpec(1)
	eng := mustEngine(t,
		WithWindow(20),
		WithPolicy(spec),
		WithClock(func() float64 { return 1 }),
		WithObserver(event.Funcs{PolicyChange: func(pc event.PolicyChange) {
			mu.Lock()
			changes = append(changes, pc)
			mu.Unlock()
		}}),
	)
	eng.RegisterConsumer(FuncConsumer{ID: 0, Fn: func(model.Query, model.ProviderSnapshot) model.Intention { return 0.5 }})
	for i := 0; i < 8; i++ {
		eng.RegisterProvider(&constProvider{id: model.ProviderID(i), pi: 0.5, util: float64(i) / 10})
	}

	// SbQA proposes kn=3 providers per query.
	a, err := submit(context.Background(), eng, model.Query{Consumer: 0, N: 1, Work: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Proposed) != 3 {
		t.Fatalf("SbQA proposed %d, want kn=3", len(a.Proposed))
	}

	// Swap to capacity: proposal set becomes exactly the selection.
	capSpec := policy.Spec{Name: "lb", Kind: policy.Capacity}
	if err := eng.Reconfigure(context.Background(), capSpec); err != nil {
		t.Fatal(err)
	}
	if got := eng.Policy(); got.Kind != policy.Capacity {
		t.Fatalf("Policy() after reconfigure = %+v", got)
	}
	if gen := eng.PolicyGeneration(); gen != 1 {
		t.Fatalf("generation = %d, want 1", gen)
	}
	// The swap is lazy: stats show the shard still on generation 0 until
	// the next mediation boundary.
	if st := eng.Stats(); st.Shards[0].PolicyGeneration != 0 || st.Shards[0].PolicySwaps != 0 {
		t.Fatalf("shard adopted the generation without a mediation boundary: %+v", st.Shards[0])
	}

	a, err = submit(context.Background(), eng, model.Query{Consumer: 0, N: 2, Work: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Proposed) != 2 || len(a.Selected) != 2 {
		t.Fatalf("capacity allocation proposed %d / selected %d, want 2/2", len(a.Proposed), len(a.Selected))
	}
	// Capacity picks the least utilized: providers 0 and 1.
	if a.Selected[0] != 0 || a.Selected[1] != 1 {
		t.Fatalf("capacity selected %v, want [0 1]", a.Selected)
	}

	st := eng.Stats()
	if st.PolicyGeneration != 1 {
		t.Fatalf("Stats().PolicyGeneration = %d, want 1", st.PolicyGeneration)
	}
	if st.Shards[0].PolicyGeneration != 1 || st.Shards[0].PolicySwaps != 1 {
		t.Fatalf("shard stats after boundary: %+v", st.Shards[0])
	}
	if st.PolicySwaps() != 1 {
		t.Fatalf("PolicySwaps() = %d, want 1", st.PolicySwaps())
	}

	mu.Lock()
	defer mu.Unlock()
	if len(changes) != 1 {
		t.Fatalf("got %d PolicyChange events, want 1", len(changes))
	}
	if changes[0].Generation != 1 || changes[0].Kind != string(policy.Capacity) || changes[0].Name != "lb" {
		t.Fatalf("PolicyChange = %+v", changes[0])
	}
}

func TestReconfigureRejectsInvalidSpecAndKeepsRunningPolicy(t *testing.T) {
	spec := sbqaSpec(1)
	eng := mustEngine(t, WithWindow(20), WithPolicy(spec))
	err := eng.Reconfigure(context.Background(), policy.Spec{Kind: "warp-drive"})
	if err == nil || !strings.Contains(err.Error(), "unknown kind") {
		t.Fatalf("err = %v, want unknown-kind validation error", err)
	}
	if got := eng.Policy(); got.Kind != policy.SbQA {
		t.Fatalf("running policy changed after a rejected reconfigure: %+v", got)
	}
	if eng.PolicyGeneration() != 0 {
		t.Fatalf("generation bumped by a rejected reconfigure")
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := eng.Reconfigure(canceled, sbqaSpec(2)); err == nil {
		t.Fatal("Reconfigure accepted a canceled context")
	}
}

// TestReconfigurePreservesSatisfactionMemory: swapping policies must not
// reset the satisfaction registry (retuning is not amnesia).
func TestReconfigurePreservesSatisfactionMemory(t *testing.T) {
	spec := sbqaSpec(1)
	eng := mustEngine(t, WithWindow(20), WithPolicy(spec), WithClock(func() float64 { return 1 }))
	eng.RegisterConsumer(FuncConsumer{ID: 0, Fn: func(model.Query, model.ProviderSnapshot) model.Intention { return 0.9 }})
	for i := 0; i < 4; i++ {
		eng.RegisterProvider(&constProvider{id: model.ProviderID(i), pi: 0.5})
	}
	for i := 0; i < 20; i++ {
		if _, err := submit(context.Background(), eng, model.Query{Consumer: 0, N: 1, Work: 1}, nil); err != nil {
			t.Fatal(err)
		}
	}
	before := eng.ConsumerSatisfaction(0)
	if before == 0 {
		t.Fatal("no satisfaction accumulated before reconfigure")
	}
	if err := eng.Reconfigure(context.Background(), policy.Spec{Kind: policy.Capacity}); err != nil {
		t.Fatal(err)
	}
	if after := eng.ConsumerSatisfaction(0); after != before {
		t.Fatalf("satisfaction changed across reconfigure with no mediation: %v -> %v", before, after)
	}
}

// slowParticipant is a constProvider whose context-aware intention call
// takes a fixed wall-clock time, for deadline-override tests.
type slowParticipant struct {
	constProvider
	delay time.Duration
}

func (p *slowParticipant) IntentionContext(ctx context.Context, q model.Query) (model.Intention, error) {
	select {
	case <-time.After(p.delay):
		return p.pi, nil
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// TestReconfigureDeadlineOverrideAndRestore: a policy with its own
// participant deadline overrides the engine's configured deadline; a later
// policy *without* one restores the engine's base — it does not inherit
// the previous policy's override.
func TestReconfigureDeadlineOverrideAndRestore(t *testing.T) {
	spec := sbqaSpec(1) // no deadline: runs under the engine's base (unbounded)
	eng := mustEngine(t, WithWindow(20), WithPolicy(spec), WithClock(func() float64 { return 1 }))
	eng.RegisterConsumer(FuncConsumer{ID: 0, Fn: func(model.Query, model.ProviderSnapshot) model.Intention { return 0.5 }})
	for i := 0; i < 3; i++ {
		eng.RegisterProvider(&slowParticipant{
			constProvider: constProvider{id: model.ProviderID(i), pi: 0.5},
			delay:         20 * time.Millisecond,
		})
	}
	submit := func() {
		t.Helper()
		if _, err := submit(context.Background(), eng, model.Query{Consumer: 0, N: 1, Work: 1}, nil); err != nil {
			t.Fatal(err)
		}
	}
	imputed := func() uint64 { return imputations(eng.Stats()) }

	// Base: unbounded — the slow participants are waited for.
	submit()
	if got := imputed(); got != 0 {
		t.Fatalf("unbounded base imputed %d intentions", got)
	}

	// Override: a 1ms policy deadline makes every slow participant miss.
	tight := sbqaSpec(1)
	tight.ParticipantDeadline = policy.Duration(time.Millisecond)
	if err := eng.Reconfigure(context.Background(), tight); err != nil {
		t.Fatal(err)
	}
	submit()
	afterTight := imputed()
	if afterTight == 0 {
		t.Fatal("1ms policy deadline never imputed a 20ms participant")
	}

	// Restore: a spec with no deadline goes back to the unbounded base,
	// not the previous policy's 1ms override.
	if err := eng.Reconfigure(context.Background(), sbqaSpec(2)); err != nil {
		t.Fatal(err)
	}
	submit()
	if got := imputed(); got != afterTight {
		t.Fatalf("no-deadline policy kept the previous override: imputations %d -> %d", afterTight, got)
	}
}

// TestSingleShardDeterminismAcrossGenerationSwap: two identical runs with
// the same mid-run Reconfigure schedule must produce byte-identical
// allocations on a single shard — the epoch swap cannot perturb the
// allocator's sampling stream or ranking.
func TestSingleShardDeterminismAcrossGenerationSwap(t *testing.T) {
	run := func() []string {
		var clock atomic.Int64
		spec := sbqaSpec(42)
		eng := mustEngine(t,
			WithWindow(30),
			WithPolicy(spec),
			WithClock(func() float64 { return float64(clock.Load()) / 100 }),
		)
		for c := 0; c < 3; c++ {
			id := model.ConsumerID(c)
			eng.RegisterConsumer(FuncConsumer{ID: id, Fn: func(q model.Query, snap model.ProviderSnapshot) model.Intention {
				return model.Intention(float64((int(snap.ID)+int(id))%5)/5 - 0.2)
			}})
		}
		for i := 0; i < 10; i++ {
			eng.RegisterProvider(&constProvider{
				id: model.ProviderID(i), pi: model.Intention(float64(i%7)/7 - 0.3), util: float64(i%4) / 4,
			})
		}
		var out []string
		for i := 0; i < 150; i++ {
			clock.Store(int64(i))
			if i == 50 {
				// Retune mid-run: wider funnel, fixed ω.
				if err := eng.Reconfigure(context.Background(), policy.Spec{
					Kind: policy.SbQA, K: 9, Kn: 5, OmegaMode: policy.OmegaFixed, Omega: 0.25, Seed: 7,
				}); err != nil {
					t.Fatal(err)
				}
			}
			if i == 100 {
				if err := eng.Reconfigure(context.Background(), policy.Spec{Kind: policy.Capacity}); err != nil {
					t.Fatal(err)
				}
			}
			a, err := submit(context.Background(), eng, model.Query{Consumer: model.ConsumerID(i % 3), N: 1 + i%2, Work: 1 + float64(i%3)}, nil)
			if err != nil {
				out = append(out, "err:"+err.Error())
				continue
			}
			out = append(out, fmt.Sprintf("%+v", *a))
		}
		if st := eng.Stats(); st.Shards[0].PolicySwaps != 2 {
			t.Fatalf("policy swaps = %d, want 2", st.Shards[0].PolicySwaps)
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

// TestReconfigureUnderConcurrentLoad drives a multi-shard engine with
// concurrent Submit traffic while another goroutine flips the policy
// back and forth — the acceptance criterion's -race workout.
func TestReconfigureUnderConcurrentLoad(t *testing.T) {
	spec := sbqaSpec(1)
	eng, err := NewEngine(
		WithWindow(50),
		WithConcurrency(4),
		WithPolicy(spec),
		WithQueueDepth(256),
	)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		w, err := NewWorker(model.ProviderID(i), 2000, 512, func(model.Query) model.Intention { return 0.4 })
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		eng.RegisterWorker(w)
	}
	const consumers = 8
	for c := 0; c < consumers; c++ {
		eng.RegisterConsumer(FuncConsumer{ID: model.ConsumerID(c), Fn: func(q model.Query, snap model.ProviderSnapshot) model.Intention {
			return model.Intention(0.6 - snap.Utilization)
		}})
	}

	stop := make(chan struct{})
	specs := []policy.Spec{
		sbqaSpec(1),
		{Kind: policy.SbQA, K: 4, Kn: 2, OmegaMode: policy.OmegaFixed, Omega: 0.5, Seed: 9},
		{Kind: policy.Capacity},
		{Kind: policy.Random, Seed: 3},
	}
	var reconfigurer sync.WaitGroup
	reconfigurer.Add(1)
	published := make(chan struct{}) // closed once the first Reconfigure has returned
	go func() {
		defer reconfigurer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			err := eng.Reconfigure(context.Background(), specs[i%len(specs)])
			if i == 0 {
				close(published)
			}
			if err != nil {
				t.Errorf("reconfigure: %v", err)
				return
			}
		}
	}()

	// Every mediation follows a published generation: on a loaded machine
	// the submitters could otherwise finish before the first swap returns.
	<-published
	var submitters sync.WaitGroup
	for c := 0; c < consumers; c++ {
		submitters.Add(1)
		go func(c int) {
			defer submitters.Done()
			for i := 0; i < 40; i++ {
				qs := []model.Query{
					{Consumer: model.ConsumerID(c), N: 1, Work: 1},
					{Consumer: model.ConsumerID(c), N: 2, Work: 2},
				}
				_, errs := submitAll(context.Background(), eng, qs, nil)
				for _, err := range errs {
					if err != nil {
						t.Errorf("allocation: %v", err)
					}
				}
			}
		}(c)
	}
	// Stop the reconfigurer only after every submitter finished, so swaps
	// overlap traffic for the whole test.
	submitters.Wait()
	close(stop)
	reconfigurer.Wait()
	eng.Close()

	st := eng.Stats()
	if st.PolicySwaps() == 0 {
		t.Fatal("no shard ever applied a reconfigured policy under load")
	}
	if got := st.Mediations(); got != uint64(consumers*40*2) {
		t.Fatalf("mediations = %d, want %d", got, consumers*40*2)
	}
}

func TestEngineOptionValidationPolicy(t *testing.T) {
	spec := sbqaSpec(1)
	if _, err := NewEngine(WithWindow(10)); err == nil {
		t.Fatal("accepted an engine with no policy")
	}
	if _, err := NewEngine(WithPolicy(spec), WithTuner(policy.TunerConfig{})); err == nil {
		t.Fatal("accepted WithTuner without WithSnapshotInterval")
	}
	if _, err := NewEngine(WithPolicy(policy.Spec{Kind: "bogus"})); err == nil {
		t.Fatal("accepted an invalid policy spec")
	}
	// Multi-shard engines build per-shard allocators straight from the
	// policy.
	eng, err := NewEngine(WithPolicy(spec), WithConcurrency(4))
	if err != nil {
		t.Fatal(err)
	}
	eng.Close()
}
