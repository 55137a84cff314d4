package live

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"sbqa/internal/mediator"
	"sbqa/internal/model"
	"sbqa/internal/sim"
)

// TestMediateHookByteIdenticalUnderVirtualClock drives Engine.Mediate —
// the dispatch-free embedding hook the workload lab uses — under a sim
// virtual clock and requires byte-identical allocations and satisfaction
// state against a plain serialized mediator fed the same inputs. This is
// the lab's foundational guarantee: what it measures is the real engine.
func TestMediateHookByteIdenticalUnderVirtualClock(t *testing.T) {
	const (
		window    = 40
		providers = 10
		queries   = 200
		consumers = 3
	)
	newConsumer := func(id model.ConsumerID) FuncConsumer {
		return FuncConsumer{ID: id, Fn: func(q model.Query, snap model.ProviderSnapshot) model.Intention {
			return model.Intention(float64((int(snap.ID)+int(id))%5)/5 - 0.2)
		}}
	}
	register := func(reg interface {
		RegisterConsumer(mediator.Consumer)
		RegisterProvider(mediator.Provider)
	}) {
		for c := 0; c < consumers; c++ {
			reg.RegisterConsumer(newConsumer(model.ConsumerID(c)))
		}
		for i := 0; i < providers; i++ {
			reg.RegisterProvider(&constProvider{
				id: model.ProviderID(i), pi: model.Intention(float64(i%7)/7 - 0.3), util: float64(i%4) / 4,
			})
		}
	}

	ref := mediator.New(sbqaAllocator(42), mediator.Config{Window: window})
	register(ref)

	eng := sim.NewEngine()
	med := mustEngine(t,
		WithWindow(window),
		WithConcurrency(1),
		WithPolicy(sbqaSpec(42)),
		WithClock(eng.Now),
	)
	register(med)

	// Queries arrive as scheduled sim events at distinct virtual times.
	for i := 0; i < queries; i++ {
		i := i
		eng.Schedule(float64(i)*0.25, func() {
			q := model.Query{Consumer: model.ConsumerID(i % consumers), N: 1 + i%2, Work: 1 + float64(i%3)}

			refQ := q
			refQ.ID = model.QueryID(i + 1)
			refQ.IssuedAt = eng.Now()
			wantA, wantErr := ref.Mediate(context.Background(), eng.Now(), refQ)

			gotA, gotErr := med.Mediate(context.Background(), q)
			if !errors.Is(gotErr, wantErr) {
				t.Fatalf("query %d: err %v vs %v (Mediate must return raw mediator errors)", i, gotErr, wantErr)
			}
			if wantErr != nil {
				return
			}
			if gotA.Query.IssuedAt != eng.Now() {
				t.Fatalf("query %d: IssuedAt %v, want virtual now %v", i, gotA.Query.IssuedAt, eng.Now())
			}
			if want, got := fmt.Sprintf("%+v", *wantA), fmt.Sprintf("%+v", *gotA); want != got {
				t.Fatalf("query %d diverged:\nserialized: %s\nhook:       %s", i, want, got)
			}
		})
	}
	for eng.Step() {
	}

	for c := 0; c < consumers; c++ {
		if a, b := ref.Registry().ConsumerSatisfaction(model.ConsumerID(c)), med.ConsumerSatisfaction(model.ConsumerID(c)); a != b {
			t.Errorf("consumer %d δs: %v vs %v", c, a, b)
		}
	}
	for p := 0; p < providers; p++ {
		if a, b := ref.Registry().ProviderSatisfaction(model.ProviderID(p)), med.ProviderSatisfaction(model.ProviderID(p)); a != b {
			t.Errorf("provider %d δs: %v vs %v", p, a, b)
		}
	}
}

// TestMediateHookAdoptsReconfigureAtBoundary: a Reconfigure issued between
// Mediate calls (e.g. from a scheduled sim event) is in force for the very
// next Mediate — the hot-swap path works identically on the hook.
func TestMediateHookAdoptsReconfigureAtBoundary(t *testing.T) {
	spec := sbqaSpec(1)
	med := mustEngine(t,
		WithWindow(20),
		WithPolicy(spec),
		WithClock(func() float64 { return 1 }),
	)
	med.RegisterConsumer(FuncConsumer{ID: 0, Fn: func(model.Query, model.ProviderSnapshot) model.Intention { return 0.5 }})
	for i := 0; i < 8; i++ {
		med.RegisterProvider(&constProvider{id: model.ProviderID(i), pi: 0.5, util: float64(i) / 10})
	}

	a, err := med.Mediate(context.Background(), model.Query{Consumer: 0, N: 1, Work: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Proposed) != 3 {
		t.Fatalf("proposed %d, want kn=3 from the initial spec", len(a.Proposed))
	}

	next := spec
	next.Kn = 5
	if err := med.Reconfigure(context.Background(), next); err != nil {
		t.Fatal(err)
	}
	a, err = med.Mediate(context.Background(), model.Query{Consumer: 0, N: 1, Work: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Proposed) != 5 {
		t.Fatalf("proposed %d, want kn=5 adopted at the first post-Reconfigure Mediate", len(a.Proposed))
	}

	// No dispatch side effects: Mediate never touches dispatch counters.
	for i, sh := range med.Stats().Shards {
		if sh.DispatchFailures != 0 {
			t.Fatalf("shard %d dispatch failures = %d, want 0 on the mediate-only path", i, sh.DispatchFailures)
		}
	}
}
