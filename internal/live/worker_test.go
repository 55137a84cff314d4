package live

import (
	"context"
	"sync"
	"testing"
	"time"

	"sbqa/internal/model"
)

// lifecycleWorker returns a worker with the given capacity and queue bound,
// closed when the test ends.
func lifecycleWorker(t *testing.T, id model.ProviderID, capacity float64, queueCap int) *Worker {
	t.Helper()
	w, err := NewWorker(id, capacity, queueCap, func(model.Query) model.Intention { return 0.5 })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

// waitFor polls cond under the worker's mutex until it holds or 5 s pass.
func waitFor(t *testing.T, w *Worker, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		w.mu.Lock()
		ok := cond()
		w.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker %d: %s never happened", w.ProviderID(), what)
		}
	}
}

// TestIdleWorkersSpawnNothing: a registered worker that has no work holds no
// goroutine — 2,000 of them add none — and a worker that has served its
// backlog gives its goroutine back.
func TestIdleWorkersSpawnNothing(t *testing.T) {
	eng := mustEngine(t, WithWindow(10), capacityPolicy)
	eng.RegisterConsumer(FuncConsumer{ID: 0})
	before := settledGoroutines()
	workers := make([]*Worker, 2000)
	for i := range workers {
		workers[i] = lifecycleWorker(t, model.ProviderID(i), 1e6, 64)
		eng.RegisterWorker(workers[i])
	}
	if n := settledGoroutines(); n != before {
		t.Fatalf("%d goroutines before registering 2,000 idle workers, %d after", before, n)
	}
	for i := 0; i < 10; i++ {
		if _, err := eng.Submit(context.Background(), model.Query{Consumer: 0, N: 3, Work: 1}).Await(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if n := settledGoroutines(); n != before {
		t.Fatalf("%d goroutines before serving 10 queries, %d after", before, n)
	}
}

// TestWorkerServesInAcceptanceOrder: one worker delivers its tasks in the
// order it accepted them, and each latency covers the service times of every
// task up to and including its own.
func TestWorkerServesInAcceptanceOrder(t *testing.T) {
	const capacity = 1000 // work 1 = 1 ms
	w := lifecycleWorker(t, 1, capacity, 64)
	results := make(chan Result, 32)
	var cumulative []time.Duration
	var sum float64
	for i := 0; i < 20; i++ {
		work := float64(1 + i%3)
		sum += work
		cumulative = append(cumulative, time.Duration(sum/capacity*float64(time.Second)))
		if !w.accept(context.Background(), newTicket(model.Query{ID: model.QueryID(i + 1), N: 1, Work: work}, results)) {
			t.Fatalf("task %d refused", i+1)
		}
	}
	for i := range cumulative {
		select {
		case r := <-results:
			if r.Query.ID != model.QueryID(i+1) {
				t.Fatalf("result %d is query %d", i+1, r.Query.ID)
			}
			if r.Latency < cumulative[i] {
				t.Errorf("query %d: latency %v below its cumulative service time %v", i+1, r.Latency, cumulative[i])
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("result %d never arrived", i+1)
		}
	}
}

// TestAcceptRefusesAtQueueCap: behind the task in service, exactly queueCap
// tasks wait; the next is refused. A ring that wraps around thousands of
// times still serves every task once, in order, without growing past
// queueCap.
func TestAcceptRefusesAtQueueCap(t *testing.T) {
	const queueCap = 5
	slow := lifecycleWorker(t, 1, 0.001, queueCap)
	task := func(id int, ch chan<- Result) *Ticket {
		return newTicket(model.Query{ID: model.QueryID(id), N: 1, Work: 10}, ch)
	}
	if !slow.accept(context.Background(), task(1, nil)) {
		t.Fatal("first task refused")
	}
	waitFor(t, slow, "taking the first task into service", func() bool { return slow.queued == 0 })
	for i := 0; i < queueCap; i++ {
		if !slow.accept(context.Background(), task(i+2, nil)) {
			t.Fatalf("task %d refused with %d of %d slots taken", i+2, i, queueCap)
		}
	}
	if slow.accept(context.Background(), task(queueCap+2, nil)) {
		t.Fatalf("accepted a task with all %d slots taken", queueCap)
	}
	if d := slow.QueueDepth(); d != queueCap+1 {
		t.Fatalf("queue depth %d, want %d", d, queueCap+1)
	}

	const tasks = 3000
	fast := lifecycleWorker(t, 2, 1e6, 3)
	results := make(chan Result, tasks)
	for i := 1; i <= tasks; i++ {
		for !fast.accept(context.Background(), task(i, results)) {
			time.Sleep(10 * time.Microsecond)
		}
	}
	for i := 1; i <= tasks; i++ {
		select {
		case r := <-results:
			if r.Query.ID != model.QueryID(i) {
				t.Fatalf("result %d is query %d", i, r.Query.ID)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("result %d never arrived", i)
		}
	}
	waitFor(t, fast, "going idle", func() bool { return !fast.running })
	if len(fast.ring) > 3 {
		t.Fatalf("ring grew to %d slots past queueCap 3", len(fast.ring))
	}
}

// TestLongServiceTimeSaturates: a service time past the int64 nanoseconds a
// time.Duration holds sleeps as long as one can, instead of wrapping to a
// negative duration that fires at once.
func TestLongServiceTimeSaturates(t *testing.T) {
	w := lifecycleWorker(t, 1, 1, 4)
	tk := newTicket(model.Query{ID: 1, N: 1, Work: 1e10}, nil) // about 317 years
	tk.expect(1)
	if !w.accept(context.Background(), tk) {
		t.Fatal("task refused")
	}
	tk.finish(nil, nil)
	time.Sleep(100 * time.Millisecond)
	if d := w.QueueDepth(); d != 1 {
		t.Fatalf("queue depth %d after 100 ms, want the task still in service", d)
	}
	select {
	case <-tk.Done():
		t.Fatal("a 317-year task completed within 100 ms")
	default:
	}
}

// TestAcceptDrainCloseRace: accepts from many goroutines, workers draining
// and starting new runs, and Close arriving in the middle — every accepted
// ticket is delivered or abandoned exactly once, and every refused one never.
func TestAcceptDrainCloseRace(t *testing.T) {
	const submitters, perSubmitter = 8, 200
	workers := make([]*Worker, 4)
	for i := range workers {
		workers[i] = lifecycleWorker(t, model.ProviderID(i), 1e5, 4)
	}
	tickets := make([][]*Ticket, submitters)
	var wg sync.WaitGroup
	for s := range tickets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				tk := newTicket(model.Query{ID: model.QueryID(s*perSubmitter + i + 1), N: 1, Work: 1}, nil)
				tk.expect(1)
				if !workers[(s+i)%len(workers)].accept(context.Background(), tk) {
					tk.refused(1)
				}
				tk.finish(nil, nil)
				tickets[s] = append(tickets[s], tk)
				if s == 0 && i == perSubmitter/2 {
					for _, w := range workers {
						w.Close()
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, ts := range tickets {
		for _, tk := range ts {
			select {
			case <-tk.Done():
			case <-time.After(5 * time.Second):
				t.Fatalf("ticket of query %d never completed", tk.query.ID)
			}
		}
	}
	for _, w := range workers {
		waitFor(t, w, "going idle", func() bool { return !w.running && w.queued == 0 && w.queueLen == 0 })
	}
	for _, ts := range tickets {
		for _, tk := range ts {
			tk.mu.Lock()
			pending, results := tk.pending, len(tk.results)
			tk.mu.Unlock()
			if pending != 0 || results > 1 {
				t.Fatalf("query %d: countdown at %d with %d results after every worker went idle", tk.query.ID, pending, results)
			}
		}
	}
}
