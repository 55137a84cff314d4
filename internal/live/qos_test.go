package live

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"sbqa/internal/event"
	"sbqa/internal/model"
	"sbqa/internal/policy"
	"sbqa/internal/qos"
)

// withQoS runs spec the way sbqad does: as the qos block of the engine's
// policy (sbqaAllocator's KnBest parameters, shard seeds 1, 2, …).
func withQoS(spec qos.Spec) Option {
	return WithPolicy(policy.Spec{Kind: policy.SbQA, K: 6, Kn: 3, Seed: 1, QoS: &spec})
}

// blockingConsumer registers a consumer whose intention callback parks the
// shard loop inside mediation until release is closed — the deterministic
// way to hold a query "in service" while the tests stack more behind it.
// entered receives once when the shard loop first enters the mediation.
func blockingConsumer(id model.ConsumerID) (c FuncConsumer, entered chan struct{}, release chan struct{}) {
	entered = make(chan struct{}, 1)
	release = make(chan struct{})
	c = FuncConsumer{ID: id, Fn: func(model.Query, model.ProviderSnapshot) model.Intention {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
		return 0.5
	}}
	return c, entered, release
}

// TestSubmitBrownoutShedsTypedAndEmitsEvent: a browned-out class sheds at
// Submit with a *ShedError carrying class/reason, matches ErrShed, and
// emits exactly one event.Shed — while the protected class keeps admitting.
func TestSubmitBrownoutShedsTypedAndEmitsEvent(t *testing.T) {
	spec := qos.Spec{
		Classes: []qos.ClassSpec{
			{Name: qos.Interactive, Weight: 8},
			{Name: qos.Background, Weight: 1},
		},
		DefaultClass: qos.Interactive,
	}
	var mu sync.Mutex
	var sheds []event.Shed
	obs := event.Funcs{Shed: func(s event.Shed) {
		mu.Lock()
		sheds = append(sheds, s)
		mu.Unlock()
	}}
	eng, _ := newTestEngine(t, withQoS(spec), WithObserver(obs))
	eng.SetBrownout(1)

	ctx := context.Background()
	tk := eng.Submit(ctx, model.Query{Consumer: 0, N: 1, Work: 1}, WithQoSClass(qos.Background))
	_, err := tk.Allocation()
	if !errors.Is(err, ErrShed) {
		t.Fatalf("background submission error = %v, want ErrShed", err)
	}
	se, ok := AsShedError(err)
	if !ok {
		t.Fatalf("error %v does not unwrap to *ShedError", err)
	}
	if se.Class != qos.Background || se.Reason != qos.ReasonBrownout {
		t.Fatalf("shed = class %q reason %q, want %q/%q", se.Class, se.Reason, qos.Background, qos.ReasonBrownout)
	}
	if se.Query.ID != tk.Query().ID {
		t.Fatalf("shed error query %d, ticket query %d", se.Query.ID, tk.Query().ID)
	}

	// The shed is never silent: one event, matching the error.
	mu.Lock()
	got := append([]event.Shed(nil), sheds...)
	mu.Unlock()
	if len(got) != 1 || got[0].Reason != qos.ReasonBrownout || got[0].Class != qos.Background {
		t.Fatalf("shed events = %+v, want one brownout/background event", got)
	}

	// The protected class still flows end to end.
	if _, err := eng.Submit(ctx, model.Query{Consumer: 0, N: 1, Work: 1}, WithQoSClass(qos.Interactive)).Allocation(); err != nil {
		t.Fatalf("interactive submission failed under brownout: %v", err)
	}
}

// TestSubmitQueueFullShedsBoundedClass: a class with MaxQueueDepth sheds
// (typed, reason queue_full) instead of blocking once its queue is full.
func TestSubmitQueueFullShedsBoundedClass(t *testing.T) {
	spec := qos.Spec{
		Classes: []qos.ClassSpec{
			{Name: qos.Interactive, Weight: 8},
			{Name: qos.Batch, Weight: 1, MaxQueueDepth: 1},
		},
		DefaultClass: qos.Interactive,
	}
	eng, _ := newTestEngine(t, withQoS(spec), WithConcurrency(1))
	blocker, entered, release := blockingConsumer(9)
	eng.RegisterConsumer(blocker)
	var once sync.Once
	unpark := func() { once.Do(func() { close(release) }) }
	defer unpark()

	ctx := context.Background()
	inService := eng.Submit(ctx, model.Query{Consumer: 9, N: 1, Work: 1})
	<-entered // the shard loop is now parked mid-mediation

	queued := eng.Submit(ctx, model.Query{Consumer: 0, N: 1, Work: 1}, WithQoSClass(qos.Batch))
	overflow := eng.Submit(ctx, model.Query{Consumer: 1, N: 1, Work: 1}, WithQoSClass(qos.Batch))
	_, err := overflow.Allocation()
	se, ok := AsShedError(err)
	if !ok || se.Reason != qos.ReasonQueueFull || se.Class != qos.Batch {
		t.Fatalf("overflow error = %v, want *ShedError queue_full/batch", err)
	}

	unpark()
	if _, err := inService.Allocation(); err != nil {
		t.Fatalf("in-service query failed: %v", err)
	}
	if _, err := queued.Allocation(); err != nil {
		t.Fatalf("queued batch query failed: %v", err)
	}
}

// TestSubmitExpiredDeadlineShedsAtDequeue: a queued query whose deadline
// passes before the shard picks it up is failed typed (reason deadline),
// never mediated.
func TestSubmitExpiredDeadlineShedsAtDequeue(t *testing.T) {
	eng, _ := newTestEngine(t, WithConcurrency(1))
	blocker, entered, release := blockingConsumer(9)
	eng.RegisterConsumer(blocker)

	ctx := context.Background()
	inService := eng.Submit(ctx, model.Query{Consumer: 9, N: 1, Work: 1})
	<-entered

	doomed := eng.Submit(ctx, model.Query{Consumer: 0, N: 1, Work: 1}, WithDeadline(time.Microsecond))
	time.Sleep(2 * time.Millisecond) // let the deadline lapse while queued
	close(release)

	_, err := doomed.Allocation()
	se, ok := AsShedError(err)
	if !ok || se.Reason != qos.ReasonDeadline {
		t.Fatalf("expired-deadline error = %v, want *ShedError deadline", err)
	}
	if _, err := inService.Allocation(); err != nil {
		t.Fatalf("in-service query failed: %v", err)
	}
}

// TestAwaitCtxCancelWhileBlockedOnFullQueue: a Submit blocked on the
// backpressure path (unbounded class, full shard queue) unblocks on ctx
// cancel, its ticket fails with the context error, and the queries ahead
// of it complete untouched.
func TestAwaitCtxCancelWhileBlockedOnFullQueue(t *testing.T) {
	eng, _ := newTestEngine(t, WithConcurrency(1), WithQueueDepth(1))
	blocker, entered, release := blockingConsumer(9)
	eng.RegisterConsumer(blocker)

	ctx := context.Background()
	inService := eng.Submit(ctx, model.Query{Consumer: 9, N: 1, Work: 1})
	<-entered
	queued := eng.Submit(ctx, model.Query{Consumer: 0, N: 1, Work: 1}) // fills the depth-1 queue

	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	submitted := make(chan *Ticket, 1)
	go func() {
		submitted <- eng.Submit(cctx, model.Query{Consumer: 1, N: 1, Work: 1})
	}()
	select {
	case <-submitted:
		t.Fatal("submit returned despite a full queue — backpressure is gone")
	case <-time.After(50 * time.Millisecond):
	}

	cancel()
	var blocked *Ticket
	select {
	case blocked = <-submitted:
	case <-time.After(5 * time.Second):
		t.Fatal("submit still blocked after ctx cancel — submitter goroutine leaked")
	}
	if _, err := blocked.Await(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("blocked ticket error = %v, want context.Canceled", err)
	}

	close(release)
	if _, err := inService.Allocation(); err != nil {
		t.Fatalf("in-service query failed: %v", err)
	}
	if _, err := queued.Allocation(); err != nil {
		t.Fatalf("queued query failed: %v", err)
	}
}

// TestCloseWhileBlockedOnFullQueue: Close unblocks a backpressured Submit
// with the typed ErrEngineClosed while the queries already queued drain and
// complete normally.
func TestCloseWhileBlockedOnFullQueue(t *testing.T) {
	eng, _ := newTestEngine(t, WithConcurrency(1), WithQueueDepth(1))
	blocker, entered, release := blockingConsumer(9)
	eng.RegisterConsumer(blocker)

	ctx := context.Background()
	inService := eng.Submit(ctx, model.Query{Consumer: 9, N: 1, Work: 1})
	<-entered
	queued := eng.Submit(ctx, model.Query{Consumer: 0, N: 1, Work: 1})

	submitted := make(chan *Ticket, 1)
	go func() {
		submitted <- eng.Submit(context.Background(), model.Query{Consumer: 1, N: 1, Work: 1})
	}()
	select {
	case <-submitted:
		t.Fatal("submit returned despite a full queue")
	case <-time.After(50 * time.Millisecond):
	}

	// Close drains the queue, so it returns only once the parked mediation
	// resumes — but it closes the scheduler first, and that must fail the
	// blocked Submit while the queue is still full. Releasing the mediation
	// before that would let the shard free a slot and admit the query.
	closed := make(chan struct{})
	go func() {
		eng.Close()
		close(closed)
	}()
	var blocked *Ticket
	select {
	case blocked = <-submitted:
	case <-time.After(5 * time.Second):
		t.Fatal("submit still blocked after Close — submitter goroutine leaked")
	}
	if _, err := blocked.Await(context.Background()); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("blocked ticket error = %v, want ErrEngineClosed", err)
	}
	close(release)
	<-closed
	if _, err := inService.Allocation(); err != nil {
		t.Fatalf("in-service query failed across Close: %v", err)
	}
	if _, err := queued.Allocation(); err != nil {
		t.Fatalf("queued query failed across Close: %v", err)
	}
}

// TestQoSChurnUnderRace exercises reconfigure × submit × shed × brownout
// concurrently; run with -race. Every ticket must resolve (no hangs), and
// every failure must be a typed, expected error.
func TestQoSChurnUnderRace(t *testing.T) {
	specA := qos.Spec{
		Classes: []qos.ClassSpec{
			{Name: qos.Interactive, Weight: 8},
			{Name: qos.Background, Weight: 1, MaxQueueDepth: 4},
		},
		DefaultClass: qos.Interactive,
	}
	specB := qos.Spec{
		Classes: []qos.ClassSpec{
			{Name: qos.Interactive, Weight: 4, Priority: true},
			{Name: qos.Batch, Weight: 2, MaxQueueDepth: 2},
		},
		DefaultClass: qos.Interactive,
	}
	const (
		submitters = 4
		perWorker  = 100
	)
	// The submitters wait only for the allocation, so every task can pile
	// onto one worker before it runs any. Queues that hold them all keep a
	// full worker queue (the engine's DispatchError, not a QoS fault) out of
	// this test.
	eng, _ := newTestEngineQueue(t, submitters*perWorker, withQoS(specA), WithObserver(event.Funcs{Shed: func(event.Shed) {}}))

	classes := []string{qos.Interactive, qos.Background, qos.Batch, "unknown-class", ""}
	var wg sync.WaitGroup
	errCh := make(chan error, submitters*perWorker)
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				opts := []QueryOption{WithQoSClass(classes[(s+i)%len(classes)])}
				if i%7 == 0 {
					opts = append(opts, WithDeadline(time.Nanosecond)) // guaranteed shed fodder
				}
				tk := eng.Submit(context.Background(), model.Query{Consumer: model.ConsumerID(s % 4), N: 1, Work: 0.1}, opts...)
				if _, err := tk.Allocation(); err != nil {
					if _, ok := AsShedError(err); !ok {
						errCh <- fmt.Errorf("submitter %d: unexpected error %w", s, err)
						return
					}
				}
			}
		}(s)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			spec := policy.Spec{Kind: policy.SbQA, K: 4, Kn: 2, Seed: 1}
			if i%2 == 0 {
				spec.QoS = &specB
			} else {
				spec.QoS = &specA
			}
			if err := eng.Reconfigure(context.Background(), spec); err != nil {
				errCh <- fmt.Errorf("reconfigure %d: %w", i, err)
				return
			}
			eng.SetBrownout(i % 2)
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	// Counters stayed coherent: everything enqueued was dequeued or shed.
	var enq, deq, shed uint64
	for _, sh := range eng.Stats().Shards {
		enq += sh.QoS.Enqueued
		deq += sh.QoS.Dequeued
		shed += sh.QoS.Shed
	}
	if enq == 0 || deq+shed < enq {
		t.Fatalf("scheduler ledger leaked: enqueued %d, dequeued %d, shed %d", enq, deq, shed)
	}
}
