package live

import (
	"context"
	"sync"
	"testing"
	"time"

	"sbqa/internal/model"
	"sbqa/internal/policy"
)

// fastWorker returns a worker with high capacity so tests finish quickly.
func fastWorker(t *testing.T, id model.ProviderID, intent model.Intention) *Worker {
	t.Helper()
	w, err := NewWorker(id, 1000, 64, func(model.Query) model.Intention { return intent })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

func TestNewWorkerValidation(t *testing.T) {
	if _, err := NewWorker(1, 0, 0, func(model.Query) model.Intention { return 0 }); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewWorker(1, 1, 0, nil); err == nil {
		t.Error("nil intention accepted")
	}
}

func TestSubmitAndComplete(t *testing.T) {
	eng := mustEngine(t, WithPolicy(policy.Spec{Kind: policy.SbQA}), WithWindow(50))
	for i := 0; i < 4; i++ {
		eng.RegisterWorker(fastWorker(t, model.ProviderID(i), 0.5))
	}
	eng.RegisterConsumer(FuncConsumer{ID: 0, Fn: func(model.Query, model.ProviderSnapshot) model.Intention {
		return 0.5
	}})

	results := make(chan Result, 16)
	a, err := submit(context.Background(), eng, model.Query{Consumer: 0, N: 2, Work: 1}, results)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Selected) != 2 {
		t.Fatalf("selected %d workers", len(a.Selected))
	}
	for i := 0; i < 2; i++ {
		select {
		case r := <-results:
			if r.Latency <= 0 {
				t.Errorf("non-positive latency %v", r.Latency)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for results")
		}
	}
	// Satisfaction has been recorded for the consumer.
	if s := eng.ConsumerSatisfaction(0); s <= 0 {
		t.Errorf("consumer satisfaction %v", s)
	}
}

func TestSubmitNoWorkers(t *testing.T) {
	eng := mustEngine(t, WithPolicy(policy.Spec{Kind: policy.SbQA}), WithWindow(50))
	eng.RegisterConsumer(FuncConsumer{ID: 0})
	if _, err := submit(context.Background(), eng, model.Query{Consumer: 0, N: 1, Work: 1}, nil); err == nil {
		t.Error("submit with no workers should fail")
	}
}

func TestConcurrentSubmitters(t *testing.T) {
	eng := mustEngine(t, WithPolicy(policy.Spec{Kind: policy.SbQA}), WithWindow(100))
	const workers = 8
	for i := 0; i < workers; i++ {
		eng.RegisterWorker(fastWorker(t, model.ProviderID(i), 0.4))
	}
	const consumers = 4
	const perConsumer = 25
	results := make(chan Result, consumers*perConsumer)
	for c := 0; c < consumers; c++ {
		eng.RegisterConsumer(FuncConsumer{ID: model.ConsumerID(c), Fn: func(model.Query, model.ProviderSnapshot) model.Intention {
			return 0.3
		}})
	}
	var wg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perConsumer; i++ {
				_, err := submit(context.Background(), eng, model.Query{
					Consumer: model.ConsumerID(c), N: 1, Work: 0.5,
				}, results)
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := 0; i < consumers*perConsumer; i++ {
		select {
		case <-results:
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out after %d results", i)
		}
	}
	// Every worker's satisfaction is well defined afterwards.
	for i := 0; i < workers; i++ {
		s := eng.ProviderSatisfaction(model.ProviderID(i))
		if s < 0 || s > 1 {
			t.Errorf("worker %d satisfaction %v", i, s)
		}
	}
}

func TestWorkerCloseRejectsTasks(t *testing.T) {
	eng := mustEngine(t, WithPolicy(policy.Spec{Kind: policy.SbQA}), WithWindow(50))
	w := fastWorker(t, 0, 1)
	eng.RegisterWorker(w)
	eng.RegisterConsumer(FuncConsumer{ID: 0})
	w.Close()
	_, err := submit(context.Background(), eng, model.Query{Consumer: 0, N: 1, Work: 1}, nil)
	if err == nil {
		t.Error("submit to closed worker should report dispatch failure")
	}
}

// TestAcceptFullQueueNonBlocking: a saturated worker refuses the hand-off
// immediately, as accept documents — it must never park a dispatcher (and,
// through it, its shard) until queue space frees.
func TestAcceptFullQueueNonBlocking(t *testing.T) {
	// Capacity 0.001 makes the first task service for hours, so the backlog
	// never drains during the test.
	w, err := NewWorker(3, 0.001, 1, func(model.Query) model.Intention { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	accepted := 0
	refused := false
	for i := 0; i < 8 && !refused; i++ {
		if w.accept(context.Background(), newTicket(model.Query{ID: model.QueryID(i + 1), Consumer: 0, N: 1, Work: 10}, nil)) {
			accepted++
		} else {
			refused = true
		}
	}
	if !refused {
		t.Fatal("accept never refused on a saturated worker")
	}
	// At most one task in service plus the single queued slot.
	if accepted < 1 || accepted > 2 {
		t.Errorf("accepted %d tasks before refusing, want 1 or 2", accepted)
	}
	// The refused task's optimistic accounting was rolled back.
	if snap := w.Snapshot(0); snap.QueueLen != accepted {
		t.Errorf("queue length %d after %d accepted tasks", snap.QueueLen, accepted)
	}
	// A cancelled context is refused outright.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if w.accept(ctx, newTicket(model.Query{ID: 99, Consumer: 0, N: 1, Work: 1}, nil)) {
		t.Error("accept succeeded with a cancelled context")
	}
}

func TestWorkerDoubleCloseSafe(t *testing.T) {
	w := fastWorker(t, 9, 0)
	w.Close()
	w.Close() // must not panic
}

func TestWorkerBid(t *testing.T) {
	w := fastWorker(t, 1, 0)
	q := model.Query{Consumer: 0, N: 1, Work: 100}
	if got := w.Bid(q); got != 0.1 {
		t.Errorf("default bid = %v, want 0.1", got)
	}
}

func TestSnapshotUnderLoad(t *testing.T) {
	// Slow worker accumulates pending work visible in snapshots.
	w, err := NewWorker(5, 1, 64, func(model.Query) model.Intention { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ok := w.accept(context.Background(), newTicket(model.Query{ID: 1, Consumer: 0, N: 1, Work: 50}, nil))
	if !ok {
		t.Fatal("accept failed")
	}
	snap := w.Snapshot(0)
	if snap.PendingWork < 50 {
		t.Errorf("pending work %v", snap.PendingWork)
	}
	if snap.Utilization != 1 {
		t.Errorf("utilization %v, want saturated", snap.Utilization)
	}
}
