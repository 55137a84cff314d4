package live

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"sbqa/internal/mediator"
	"sbqa/internal/model"
	"sbqa/internal/policy"
)

// TestScratchArenasUnderChurnAndReconfigure hammers the zero-allocation
// mediation hot path from every direction at once: concurrent Submit
// traffic, one ticket at a time and in pairs, on several shards (each
// shard's scratch arena — the candidate source, the snapshot and intention
// buffers — is reused per mediation), while one goroutine hot-swaps the allocation policy (rebuilding
// allocators and their scoring scratch at mediation boundaries) and another
// churns provider registrations (invalidating and rebuilding the class views
// the shards sample from). Run under -race this is the leak/race canary for
// the arena design: a buffer crossing shard boundaries, a stale view
// surviving a departure, or an allocator swap racing a mediation all surface
// here.
func TestScratchArenasUnderChurnAndReconfigure(t *testing.T) {
	spec := sbqaSpec(1)
	eng := mustEngine(t,
		WithWindow(20),
		WithConcurrency(4),
		WithPolicy(spec),
	)
	const consumers = 8
	for c := 0; c < consumers; c++ {
		eng.RegisterConsumer(FuncConsumer{ID: model.ConsumerID(c), Fn: func(q model.Query, snap model.ProviderSnapshot) model.Intention {
			return model.Intention(float64(int(snap.ID)%5)/5 - 0.3)
		}})
	}
	// A stable core of providers keeps every query allocatable while the
	// churner recycles the volatile band above it.
	const stable = 24
	for i := 0; i < stable; i++ {
		eng.RegisterProvider(&constProvider{id: model.ProviderID(i), pi: 0.5, util: float64(i%10) / 10})
	}

	ctx := context.Background()
	var submitters, churners sync.WaitGroup
	var malformed atomic.Int32
	stop := make(chan struct{})

	// Submitters: blocking single submits and pairs in flight together, all
	// shards.
	for w := 0; w < 4; w++ {
		submitters.Add(1)
		go func(w int) {
			defer submitters.Done()
			for i := 0; i < 300; i++ {
				q := model.Query{Consumer: model.ConsumerID((w + i) % consumers), N: 2, Work: 5}
				var as []*model.Allocation
				var errs []error
				if i%5 == 4 {
					pair := []model.Query{q, {Consumer: model.ConsumerID(i % consumers), N: 1, Work: 3}}
					as, errs = submitAll(ctx, eng, pair, nil)
				} else {
					a, err := submit(ctx, eng, q, nil)
					as, errs = []*model.Allocation{a}, []error{err}
				}
				for j, a := range as {
					if errs[j] != nil {
						// Transient churn races are legitimate outcomes;
						// anything else is not.
						if errors.Is(errs[j], mediator.ErrStaleSelection) ||
							errors.Is(errs[j], mediator.ErrNoCandidates) ||
							errors.Is(errs[j], ErrDispatch) {
							continue
						}
						malformed.Add(1)
						continue
					}
					// Arena corruption shows up as misaligned vectors.
					// (Baseline allocators legitimately produce no Scores;
					// when present they must align with the proposal set.)
					if a == nil || len(a.Selected) == 0 ||
						len(a.ConsumerIntentions) != len(a.Proposed) ||
						len(a.ProviderIntentions) != len(a.Proposed) ||
						(len(a.Scores) != 0 && len(a.Scores) != len(a.Proposed)) {
						malformed.Add(1)
					}
				}
			}
		}(w)
	}

	// Policy churner: SbQA ↔ Capacity, rebuilding allocators while
	// mediations are in flight (swaps apply at mediation boundaries).
	churners.Add(1)
	go func() {
		defer churners.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			next := policy.Spec{Kind: policy.Capacity}
			if i%2 == 0 {
				next = sbqaSpec(uint64(i + 2))
			}
			if err := eng.Reconfigure(ctx, next); err != nil {
				t.Errorf("Reconfigure: %v", err)
				return
			}
		}
	}()

	// Provider churner: registers and unregisters a rotating band, forcing
	// view rebuilds under the mediating shards.
	churners.Add(1)
	go func() {
		defer churners.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := model.ProviderID(stable + i%16)
			eng.RegisterWorker(mustWorker(t, id))
			eng.UnregisterWorker(id)
		}
	}()

	// Wait for the submitters, then stop the churners.
	submitters.Wait()
	close(stop)
	churners.Wait()

	if n := malformed.Load(); n != 0 {
		t.Fatalf("%d malformed or unexpectedly failed allocations under churn", n)
	}
}

func mustWorker(t *testing.T, id model.ProviderID) *Worker {
	t.Helper()
	w, err := NewWorker(id, 100, 1, func(model.Query) model.Intention { return 0.2 })
	if err != nil {
		t.Fatal(err)
	}
	return w
}
