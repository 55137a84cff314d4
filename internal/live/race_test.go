package live

import (
	"context"
	"errors"
	"sync"
	"testing"

	"sbqa/internal/model"
)

// TestShardedEngineRace is the engine's race-detector workout: 8 submitting
// goroutines (one consumer each) drive a 4-shard engine while extra workers
// join and leave and observers read satisfactions and directory state. The
// point is `go test -race ./internal/live` covering every cross-shard path:
// shared directory, shared striped registry, per-shard mediators, dispatch.
func TestShardedEngineRace(t *testing.T) {
	eng := mustEngine(t,
		WithWindow(50),
		WithConcurrency(4),
		WithPolicy(sbqaSpec(1)),
	)

	// A stable pool of workers that never leaves, so mediation always has
	// candidates.
	const stableWorkers = 6
	for i := 0; i < stableWorkers; i++ {
		w, err := NewWorker(model.ProviderID(i), 2000, 512, func(model.Query) model.Intention { return 0.4 })
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		eng.RegisterWorker(w)
	}

	const submitters = 8
	const perSubmitter = 60
	for c := 0; c < submitters; c++ {
		eng.RegisterConsumer(FuncConsumer{ID: model.ConsumerID(c), Fn: func(q model.Query, snap model.ProviderSnapshot) model.Intention {
			return model.Intention(0.6 - snap.Utilization)
		}})
	}

	// Paired iterations submit two queries, so allow for the overshoot.
	results := make(chan Result, 2*submitters*perSubmitter)
	var wg sync.WaitGroup

	// completed counts queries whose whole selection landed on stable
	// workers: those are guaranteed a result. Queries allocated to a churn
	// worker may be abandoned when it closes mid-service (documented Worker
	// semantics), so they cannot be awaited.
	completed := make([]int, submitters)
	stableOnly := func(a *model.Allocation) bool {
		for _, id := range a.Selected {
			if id >= stableWorkers {
				return false
			}
		}
		return true
	}
	for c := 0; c < submitters; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				q := model.Query{Consumer: model.ConsumerID(c), N: 1, Work: 0.2, Class: i % 2}
				if i%10 == 9 {
					// Two tickets in flight at once.
					as, errs := submitAll(context.Background(), eng, []model.Query{q, q}, results)
					for j, e := range errs {
						if e == nil {
							if stableOnly(as[j]) {
								completed[c]++
							}
						} else if !errors.Is(e, ErrDispatch) {
							t.Errorf("submitter %d pair: %v", c, e)
							return
						}
					}
					continue
				}
				a, err := submit(context.Background(), eng, q, results)
				if err == nil {
					if stableOnly(a) {
						completed[c]++
					}
				} else if !errors.Is(err, ErrDispatch) {
					t.Errorf("submitter %d: %v", c, err)
					return
				}
			}
		}()
	}

	// Churn: transient workers join and leave continuously; some are
	// class-1 specialists, so the capability index churns too.
	stop := make(chan struct{})
	var churn sync.WaitGroup
	for g := 0; g < 3; g++ {
		g := g
		churn.Add(1)
		go func() {
			defer churn.Done()
			id := model.ProviderID(100 + g)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				w, err := NewWorker(id, 2000, 64, func(model.Query) model.Intention { return 0.8 })
				if err != nil {
					t.Errorf("churn %d: %v", g, err)
					return
				}
				if g%2 == 1 {
					w.SetClasses(1)
				}
				eng.RegisterWorker(w)
				eng.UnregisterWorker(id)
				w.Close()
			}
		}()
	}

	// Observers: satisfaction reads and directory lookups during the storm.
	var observers sync.WaitGroup
	for g := 0; g < 2; g++ {
		observers.Add(1)
		go func() {
			defer observers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < stableWorkers; i++ {
					if s := eng.ProviderSatisfaction(model.ProviderID(i)); s < 0 || s > 1 {
						t.Errorf("worker %d satisfaction %v", i, s)
						return
					}
				}
				for c := 0; c < submitters; c++ {
					_ = eng.ConsumerSatisfaction(model.ConsumerID(c))
				}
				_ = eng.Directory().NumProviders()
			}
		}()
	}

	wg.Wait()
	close(stop)
	churn.Wait()
	observers.Wait()

	// Drain all results for successfully dispatched queries.
	total := 0
	for _, n := range completed {
		total += n
	}
	for i := 0; i < total; i++ {
		<-results
	}
	// Satisfaction is well defined for every participant afterwards.
	for c := 0; c < submitters; c++ {
		if s := eng.ConsumerSatisfaction(model.ConsumerID(c)); s < 0 || s > 1 {
			t.Errorf("consumer %d satisfaction %v", c, s)
		}
	}
}

// TestConcurrentConsumerChurn: consumers also join and leave while others
// submit; the engine must never panic or deadlock, and failed submissions
// must name the unregistered consumer.
func TestConcurrentConsumerChurn(t *testing.T) {
	eng := mustEngine(t,
		WithWindow(30),
		WithConcurrency(2),
		capacityPolicy,
	)
	for i := 0; i < 4; i++ {
		eng.RegisterProvider(&constProvider{id: model.ProviderID(i), pi: 0.5})
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := model.ConsumerID(g)
			for i := 0; i < 200; i++ {
				eng.RegisterConsumer(FuncConsumer{ID: id, Fn: func(model.Query, model.ProviderSnapshot) model.Intention { return 0.2 }})
				// The submit may race with another goroutine's view of the
				// directory, but must never fail for any reason other than
				// "consumer unregistered" (we only unregister our own ID).
				if _, err := submit(context.Background(), eng, model.Query{Consumer: id, N: 1, Work: 1}, nil); err != nil {
					t.Errorf("consumer %d: %v", g, err)
					return
				}
				unregisterConsumer(eng, id)
			}
		}()
	}
	wg.Wait()
}
