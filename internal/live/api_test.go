package live

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"sbqa/internal/event"
	"sbqa/internal/model"
)

// newTestEngine builds a 2-shard async engine with real workers.
// unregisterConsumer detaches a consumer and drops its satisfaction memory.
func unregisterConsumer(e *Engine, id model.ConsumerID) {
	e.dir.UnregisterConsumer(id)
	e.reg.ForgetConsumer(id)
}

// imputations sums the imputed intention-batch positions across shards.
func imputations(st Stats) (n uint64) {
	for _, sh := range st.Shards {
		n += sh.Imputations
	}
	return n
}

// intentionTimeouts sums the deadline-missed participant calls across shards.
func intentionTimeouts(st Stats) (n uint64) {
	for _, sh := range st.Shards {
		n += sh.IntentionTimeouts
	}
	return n
}

func newTestEngine(t *testing.T, opts ...Option) (*Engine, []*Worker) {
	t.Helper()
	return newTestEngineQueue(t, 128, opts...)
}

// newTestEngineQueue is newTestEngine with workers that queue up to
// queueCap tasks each.
func newTestEngineQueue(t *testing.T, queueCap int, opts ...Option) (*Engine, []*Worker) {
	t.Helper()
	base := []Option{WithWindow(30), WithConcurrency(2)}
	var asked config
	for _, o := range opts {
		o(&asked)
	}
	if asked.policy == nil {
		base = append(base, WithPolicy(sbqaSpec(1)))
	}
	eng, err := NewEngine(append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	var workers []*Worker
	for i := 0; i < 4; i++ {
		w, err := NewWorker(model.ProviderID(i), 1000, queueCap, func(model.Query) model.Intention { return 0.5 })
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
		eng.RegisterWorker(w)
		workers = append(workers, w)
	}
	for c := 0; c < 4; c++ {
		eng.RegisterConsumer(FuncConsumer{ID: model.ConsumerID(c), Fn: func(model.Query, model.ProviderSnapshot) model.Intention { return 0.4 }})
	}
	return eng, workers
}

// TestTicketSubmitAwait: the async path end to end — Submit returns a ticket
// with an assigned ID, Allocation yields the mediation result, Await the
// per-worker results, Done closes.
func TestTicketSubmitAwait(t *testing.T) {
	eng, _ := newTestEngine(t)
	tk := eng.Submit(context.Background(), model.Query{Consumer: 1, N: 2, Work: 0.5})
	if tk.Query().ID == 0 {
		t.Fatal("ticket has no assigned query ID")
	}
	a, err := tk.Allocation()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Selected) != 2 {
		t.Fatalf("selected %v, want 2 workers", a.Selected)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	results, err := tk.Await(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	for _, r := range results {
		if r.Query.ID != tk.Query().ID {
			t.Errorf("result for query %d, want %d", r.Query.ID, tk.Query().ID)
		}
	}
	select {
	case <-tk.Done():
	default:
		t.Error("Done not closed after Await returned")
	}
	if tk.Err() != nil {
		t.Errorf("Err = %v", tk.Err())
	}
	if results, _ := tk.Await(context.Background()); len(results) != 2 {
		t.Errorf("Await = %d results, want 2", len(results))
	}
}

// TestTicketPreservesSubmissionOrderPerConsumer: one consumer's tickets
// mediate in submission order even on the async path (FIFO shard queue).
func TestTicketPreservesSubmissionOrderPerConsumer(t *testing.T) {
	var mu sync.Mutex
	var order []model.QueryID
	obs := event.Funcs{Allocation: func(a *model.Allocation, _ int) {
		mu.Lock()
		order = append(order, a.Query.ID)
		mu.Unlock()
	}}
	eng, _ := newTestEngine(t, WithObserver(obs))
	const n = 40
	tickets := make([]*Ticket, n)
	for i := range tickets {
		tickets[i] = eng.Submit(context.Background(), model.Query{Consumer: 2, N: 1, Work: 0.1})
	}
	for _, tk := range tickets {
		if _, err := tk.Allocation(); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 1; i < len(order); i++ {
		if order[i] <= order[i-1] {
			t.Fatalf("mediation order not monotonic: %v", order)
		}
	}
	if len(order) != n {
		t.Fatalf("observed %d allocations, want %d", len(order), n)
	}
}

// TestEngineCloseFailsNewSubmissions: queued work completes, later
// submissions fail with ErrEngineClosed.
func TestEngineCloseFailsNewSubmissions(t *testing.T) {
	eng, _ := newTestEngine(t)
	tk := eng.Submit(context.Background(), model.Query{Consumer: 0, N: 1, Work: 0.1})
	if _, err := tk.Allocation(); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	late := eng.Submit(context.Background(), model.Query{Consumer: 0, N: 1, Work: 0.1})
	if _, err := late.Allocation(); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("post-close err = %v, want ErrEngineClosed", err)
	}
	select {
	case <-late.Done():
	default:
		t.Error("failed ticket must still complete")
	}
	eng.Close() // idempotent
}

// TestEngineStats: counters move with traffic, rejections count no-candidate
// classes, worker queues are visible.
func TestEngineStats(t *testing.T) {
	eng, _ := newTestEngine(t)
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if _, err := eng.Submit(ctx, model.Query{Consumer: model.ConsumerID(i % 4), N: 1, Work: 0.1}).Allocation(); err != nil {
			t.Fatal(err)
		}
	}
	// An unregistered consumer: rejection.
	if _, err := eng.Submit(ctx, model.Query{Consumer: 77, N: 1, Work: 1}).Allocation(); err == nil {
		t.Fatal("want unregistered-consumer rejection")
	}
	st := eng.Stats()
	if got := st.Mediations(); got != 10 {
		t.Errorf("Mediations = %d, want 10", got)
	}
	var rejects uint64
	var meanCands float64
	for _, sh := range st.Shards {
		rejects += sh.Rejections
		if sh.MeanCandidates > meanCands {
			meanCands = sh.MeanCandidates
		}
	}
	if rejects != 1 {
		t.Errorf("Rejections = %d, want 1", rejects)
	}
	if meanCands <= 0 {
		t.Error("MeanCandidates not recorded")
	}
	if st.QueriesSubmitted != 11 {
		t.Errorf("QueriesSubmitted = %d, want 11", st.QueriesSubmitted)
	}
	if st.Providers != 4 || st.Consumers != 4 {
		t.Errorf("participants = %d/%d, want 4/4", st.Providers, st.Consumers)
	}
	if len(st.WorkerQueueDepths) != 4 {
		t.Errorf("WorkerQueueDepths has %d entries, want 4", len(st.WorkerQueueDepths))
	}
	if len(st.Shards) != 2 {
		t.Errorf("Shards = %d, want 2", len(st.Shards))
	}
}

// TestObserverLifecycleEvents: registration churn, allocations, rejections,
// dispatch failures, and periodic snapshots all reach the observer.
func TestObserverLifecycleEvents(t *testing.T) {
	var mu sync.Mutex
	counts := map[string]int{}
	bump := func(k string) { mu.Lock(); counts[k]++; mu.Unlock() }
	obs := event.Funcs{
		Allocation:           func(*model.Allocation, int) { bump("alloc") },
		Rejection:            func(model.Query, error) { bump("reject") },
		DispatchFailure:      func(model.Query, *model.Allocation, error) { bump("dispatch") },
		ProviderRegistered:   func(model.ProviderID) { bump("preg") },
		ProviderDeparted:     func(model.ProviderID) { bump("pdep") },
		ConsumerRegistered:   func(model.ConsumerID) { bump("creg") },
		ConsumerDeparted:     func(model.ConsumerID) { bump("cdep") },
		SatisfactionSnapshot: func(event.SatisfactionSnapshot) { bump("snap") },
	}
	eng, workers := newTestEngine(t, WithObserver(obs), WithSnapshotInterval(10*time.Millisecond))
	ctx := context.Background()
	if _, err := eng.Submit(ctx, model.Query{Consumer: 0, N: 1, Work: 0.1}).Allocation(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Submit(ctx, model.Query{Consumer: 77, N: 1, Work: 1}).Allocation(); err == nil {
		t.Fatal("want rejection")
	}
	// Dispatch failure: the selection lands on a closed-but-registered worker.
	for _, w := range workers[1:] {
		eng.UnregisterWorker(w.ProviderID())
	}
	workers[0].Close()
	if _, err := eng.Submit(ctx, model.Query{Consumer: 0, N: 1, Work: 0.1}).Allocation(); !errors.Is(err, ErrDispatch) {
		t.Fatalf("want ErrDispatch, got %v", err)
	}
	unregisterConsumer(eng, 3)
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		snaps := counts["snap"]
		mu.Unlock()
		if snaps > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	// alloc = 2: the first query and the dispatch-failure query both mediate
	// successfully; the latter fails only at hand-off.
	for k, want := range map[string]int{"alloc": 2, "reject": 1, "dispatch": 1, "preg": 4, "pdep": 3, "creg": 4, "cdep": 1} {
		if counts[k] != want {
			t.Errorf("%s events = %d, want %d (all: %v)", k, counts[k], want, counts)
		}
	}
	if counts["snap"] == 0 {
		t.Error("no satisfaction snapshot emitted")
	}
}

// TestDispatchErrorPartitionsSelection: a partial dispatch failure names the
// workers that accepted vs failed, the accepted worker's result still
// arrives, and the typed error unwraps to ErrDispatch.
func TestDispatchErrorPartitionsSelection(t *testing.T) {
	eng, err := NewEngine(WithWindow(10), capacityPolicy)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	alive, err := NewWorker(0, 1000, 16, func(model.Query) model.Intention { return 0.5 })
	if err != nil {
		t.Fatal(err)
	}
	defer alive.Close()
	dead, err := NewWorker(1, 1000, 16, func(model.Query) model.Intention { return 0.5 })
	if err != nil {
		t.Fatal(err)
	}
	dead.Close() // closed but still registered: accept refuses
	eng.RegisterWorker(alive)
	eng.RegisterWorker(dead)
	eng.RegisterConsumer(FuncConsumer{ID: 0, Fn: func(model.Query, model.ProviderSnapshot) model.Intention { return 0.5 }})

	tk := eng.Submit(context.Background(), model.Query{Consumer: 0, N: 2, Work: 0.1})
	a, err := tk.Allocation()
	if !errors.Is(err, ErrDispatch) {
		t.Fatalf("err = %v, want ErrDispatch", err)
	}
	var de *DispatchError
	ok := errors.As(err, &de)
	if !ok {
		t.Fatalf("err %T is not *DispatchError", err)
	}
	if len(a.Selected) != 2 {
		t.Fatalf("selected %v, want both workers", a.Selected)
	}
	if len(de.Accepted) != 1 || de.Accepted[0] != 0 {
		t.Errorf("Accepted = %v, want [0]", de.Accepted)
	}
	if len(de.Failed) != 1 || de.Failed[0] != 1 {
		t.Errorf("Failed = %v, want [1]", de.Failed)
	}
	if de.Query.ID != tk.Query().ID {
		t.Errorf("DispatchError.Query.ID = %d, want %d", de.Query.ID, tk.Query().ID)
	}
	// The accepting worker still delivers; Await surfaces both the partial
	// results and the typed error.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	results, aerr := tk.Await(ctx)
	if !errors.Is(aerr, ErrDispatch) {
		t.Fatalf("Await err = %v, want the dispatch error", aerr)
	}
	if len(results) != 1 || results[0].Provider != 0 {
		t.Fatalf("results = %v, want one result from worker 0", results)
	}
	// The caller can now retry exactly the undelivered remainder.
	retry := tk.Query()
	retry.N = len(de.Failed)
	if retry.N != 1 {
		t.Fatalf("remainder = %d", retry.N)
	}
}

// TestTicketCompletesWhenWorkerClosesMidExecution: a worker closed while
// holding accepted tasks signals abandonment, so the tickets complete (no
// leaked collectors, no forever-blocked Await) with no results.
func TestTicketCompletesWhenWorkerClosesMidExecution(t *testing.T) {
	eng, err := NewEngine(WithWindow(10), capacityPolicy)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// Slow worker: each query takes ~10s, so both tickets are pending when
	// the worker closes.
	slow, err := NewWorker(3, 1, 8, func(model.Query) model.Intention { return 0.9 })
	if err != nil {
		t.Fatal(err)
	}
	eng.RegisterWorker(slow)
	eng.RegisterConsumer(FuncConsumer{ID: 0, Fn: func(model.Query, model.ProviderSnapshot) model.Intention { return 0.5 }})

	first := eng.Submit(context.Background(), model.Query{Consumer: 0, N: 1, Work: 10})
	second := eng.Submit(context.Background(), model.Query{Consumer: 0, N: 1, Work: 10})
	for _, tk := range []*Ticket{first, second} {
		if _, err := tk.Allocation(); err != nil {
			t.Fatal(err)
		}
	}
	slow.Close() // one task in service, one queued: both abandoned

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, tk := range []*Ticket{first, second} {
		results, err := tk.Await(ctx)
		if err != nil {
			t.Fatalf("ticket %d: Await err %v (submission itself succeeded)", i, err)
		}
		if len(results) != 0 {
			t.Errorf("ticket %d: %d results from a closed worker", i, len(results))
		}
	}
}

// TestAwaitContextExpiry: Await honors its context and can be re-called.
func TestAwaitContextExpiry(t *testing.T) {
	eng, err := NewEngine(WithWindow(10), capacityPolicy)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// One slow worker: 2 work units at capacity 1 take ~2s of service time.
	slow, err := NewWorker(50, 1, 4, func(model.Query) model.Intention { return 0.9 })
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	eng.RegisterWorker(slow)
	eng.RegisterConsumer(FuncConsumer{ID: 0, Fn: func(model.Query, model.ProviderSnapshot) model.Intention { return 0.5 }})
	tk := eng.Submit(context.Background(), model.Query{Consumer: 0, N: 1, Work: 2})
	if _, err := tk.Allocation(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := tk.Await(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	if rs, err := tk.Await(ctx2); err != nil || len(rs) != 1 {
		t.Fatalf("second Await: %v %v", rs, err)
	}
}

// TestSubmitGuardVetsSubmissions: an installed guard fails tickets with its
// own error before any shard sees the query, one query at a time among
// tickets in flight together, and a nil guard restores normal behavior.
// This is the cluster layer's ownership hook.
func TestSubmitGuardVetsSubmissions(t *testing.T) {
	eng, _ := newTestEngine(t)
	ctx := context.Background()
	errNotOwner := errors.New("consumer owned elsewhere")
	eng.SetSubmitGuard(func(q model.Query) error {
		if q.Consumer == 1 {
			return errNotOwner
		}
		return nil
	})

	if _, err := eng.Submit(ctx, model.Query{Consumer: 1, N: 1, Work: 0.1}).Allocation(); !errors.Is(err, errNotOwner) {
		t.Fatalf("guarded submit err = %v, want the guard's error", err)
	}
	if _, err := eng.Submit(ctx, model.Query{Consumer: 0, N: 1, Work: 0.1}).Allocation(); err != nil {
		t.Fatalf("unguarded consumer rejected: %v", err)
	}

	// Tickets in flight together: only the guarded consumer's fails; the
	// rest mediate.
	var tickets [3]*Ticket
	for c := range tickets {
		tickets[c] = eng.Submit(ctx, model.Query{Consumer: model.ConsumerID(c), N: 1, Work: 0.1})
	}
	if _, err := tickets[0].Allocation(); err != nil {
		t.Errorf("consumer 0 err = %v, want nil", err)
	}
	if _, err := tickets[1].Allocation(); !errors.Is(err, errNotOwner) {
		t.Errorf("consumer 1 err = %v, want the guard's error", err)
	}
	if _, err := tickets[2].Allocation(); err != nil {
		t.Errorf("consumer 2 err = %v, want nil", err)
	}

	// The guard rejected before mediation: no shard counted the query.
	if got := eng.Stats().Mediations(); got != 3 {
		t.Errorf("Mediations = %d, want 3 (guarded queries never mediate)", got)
	}

	eng.SetSubmitGuard(nil)
	if _, err := eng.Submit(ctx, model.Query{Consumer: 1, N: 1, Work: 0.1}).Allocation(); err != nil {
		t.Fatalf("after removing guard: %v", err)
	}
}

// TestDepartedSelectionIsDispatchFailure: a selected worker that unregisters
// between mediation and hand-off (here from the allocation observer, which
// runs after the mediator's own staleness check) is named in
// DispatchError.Failed instead of vanishing from the hand-off; the worker
// that stayed still executes.
func TestDepartedSelectionIsDispatchFailure(t *testing.T) {
	var eng *Engine
	eng = mustEngine(t, WithWindow(10), capacityPolicy,
		WithObserver(event.Funcs{Allocation: func(*model.Allocation, int) { eng.UnregisterWorker(1) }}))
	for id := 0; id < 2; id++ {
		w, err := NewWorker(model.ProviderID(id), 1000, 16, func(model.Query) model.Intention { return 0.5 })
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
		eng.RegisterWorker(w)
	}
	eng.RegisterConsumer(FuncConsumer{ID: 0, Fn: func(model.Query, model.ProviderSnapshot) model.Intention { return 0.5 }})

	tk := eng.Submit(context.Background(), model.Query{Consumer: 0, N: 2, Work: 0.1})
	a, err := tk.Allocation()
	if a == nil || len(a.Selected) != 2 {
		t.Fatalf("allocation %v, want both workers selected", a)
	}
	var de *DispatchError
	ok := errors.As(err, &de)
	if !ok {
		t.Fatalf("err = %v, want a *DispatchError naming the departed worker", err)
	}
	if len(de.Accepted) != 1 || de.Accepted[0] != 0 || len(de.Failed) != 1 || de.Failed[0] != 1 {
		t.Fatalf("Accepted = %v, Failed = %v, want [0] and [1]", de.Accepted, de.Failed)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if results, _ := tk.Await(ctx); len(results) != 1 || results[0].Provider != 0 {
		t.Fatalf("results = %v, want one result from worker 0", results)
	}
}

// TestTicketCountsDeliveryAheadOfFinish: the dispatcher's hold keeps done
// open until finish, and a worker that delivered before finish ran is still
// counted — with the result on the WithResults channel before Done closes.
func TestTicketCountsDeliveryAheadOfFinish(t *testing.T) {
	forwarded := make(chan Result, 1)
	tk := newTicket(model.Query{ID: 7}, forwarded)
	tk.expect(2)
	tk.deliver(Result{Provider: 4})
	tk.refused(1)
	select {
	case <-tk.Done():
		t.Fatal("done closed before the allocation stage finished")
	default:
	}
	tk.finish(&model.Allocation{}, nil)
	<-tk.Done()
	if r, _ := tk.Await(context.Background()); len(r) != 1 || r[0].Provider != 4 || len(forwarded) != 1 {
		t.Fatalf("results %v, %d forwarded; want worker 4's result in both", r, len(forwarded))
	}
}

// TestNothingSpawnedPerQuery: queries that are allocated and parked on slow
// workers cost no goroutine each — workers deliver to the ticket, so there is
// no collector to wait for them, and a busy worker serves its whole backlog
// on one goroutine. The baseline has a query in service on every worker, so
// the comparison is between busy workers, not between idle and busy ones.
func TestNothingSpawnedPerQuery(t *testing.T) {
	eng := mustEngine(t, WithWindow(10), capacityPolicy)
	// Four workers that need hours per query, with room to queue them all.
	var workers []*Worker
	for id := 0; id < 4; id++ {
		w, err := NewWorker(model.ProviderID(id), 0.001, 512, func(model.Query) model.Intention { return 0.5 })
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
		eng.RegisterWorker(w)
		workers = append(workers, w)
	}
	eng.RegisterConsumer(FuncConsumer{ID: 0, Fn: func(model.Query, model.ProviderSnapshot) model.Intention { return 0.5 }})
	park := func(n int) []*Ticket {
		tickets := make([]*Ticket, n)
		for i := range tickets {
			tickets[i] = eng.Submit(context.Background(), model.Query{Consumer: 0, N: 1, Work: 10})
			if _, err := tickets[i].Allocation(); err != nil {
				t.Fatal(err)
			}
		}
		return tickets
	}
	inFlight := park(len(workers))
	for _, w := range workers {
		if w.QueueDepth() != 1 {
			t.Fatalf("worker %d holds %d queries, want 1 each", w.ProviderID(), w.QueueDepth())
		}
	}
	one := settledGoroutines()
	inFlight = append(inFlight, park(256-len(workers))...)
	if many := settledGoroutines(); many != one {
		t.Fatalf("%d goroutines with 1 query in flight on each worker, %d with 256", one, many)
	}
	for _, tk := range inFlight {
		select {
		case <-tk.Done():
			t.Fatal("a parked query completed; the test measured nothing")
		default:
		}
	}
}

// settledGoroutines reads the goroutine count once it has stopped moving, so
// goroutines still exiting from an earlier test are in neither reading.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}
