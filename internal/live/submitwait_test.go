package live

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sbqa/internal/event"
	"sbqa/internal/model"
	"sbqa/internal/qos"
	"sbqa/internal/trace"
)

// TestSubmitWaitRunsOnIdleShard: on a shard with nothing queued and nothing
// in service, SubmitWait returns with the ticket already allocated, the
// scheduler counts the query enqueued and dequeued, and the trace still has
// its queue stage, zero-length.
func TestSubmitWaitRunsOnIdleShard(t *testing.T) {
	eng, _ := newTestEngine(t, WithConcurrency(1), WithTracing(1, 16))
	tk := eng.SubmitWait(context.Background(), model.Query{Consumer: 0, N: 1, Work: 0.1})
	if !tk.allocated.Load() {
		t.Fatal("SubmitWait on an idle shard returned before the allocation")
	}
	if _, err := tk.Allocation(); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats().Shards[0]; st.QueueEnqueued != 1 || st.QueueDequeued != 1 || st.QueueDepth != 0 {
		t.Fatalf("queue ledger enqueued %d dequeued %d depth %d, want 1/1/0", st.QueueEnqueued, st.QueueDequeued, st.QueueDepth)
	}
	v, ok := eng.Tracer().TraceByQuery(tk.Query().ID)
	if !ok {
		t.Fatal("no trace for the query")
	}
	var queue []trace.SpanView
	for _, s := range v.Spans {
		if s.Name == trace.StageQueue {
			queue = append(queue, s)
		}
	}
	if len(queue) != 1 || queue[0].StartNS != queue[0].EndNS {
		t.Fatalf("queue spans %+v, want one of zero length", queue)
	}
}

// TestSubmitWaitKeepsConsumerOrder: while the shard is in service — the
// shard loop or a SubmitWait caller parked mid-mediation — a SubmitWait
// queues and returns at once, behind whatever is already queued, so one
// consumer's queries still mediate in submission order.
func TestSubmitWaitKeepsConsumerOrder(t *testing.T) {
	for _, stalledBy := range []string{"Submit", "SubmitWait"} {
		t.Run(stalledBy, func(t *testing.T) {
			var mu sync.Mutex
			var order []model.QueryID
			obs := event.Funcs{Allocation: func(a *model.Allocation, _ int) {
				mu.Lock()
				order = append(order, a.Query.ID)
				mu.Unlock()
			}}
			eng, _ := newTestEngine(t, WithConcurrency(1), WithObserver(obs))
			blocker, entered, release := blockingConsumer(9)
			eng.RegisterConsumer(blocker)
			var once sync.Once
			unpark := func() { once.Do(func() { close(release) }) }
			defer unpark()
			ctx := context.Background()

			stalled := make(chan *Ticket, 1)
			go func() {
				q := model.Query{Consumer: 9, N: 1, Work: 0.1}
				if stalledBy == "Submit" {
					stalled <- eng.Submit(ctx, q)
				} else {
					stalled <- eng.SubmitWait(ctx, q)
				}
			}()
			<-entered
			submitWait := func() *Ticket {
				t.Helper()
				ch := make(chan *Ticket, 1)
				go func() { ch <- eng.SubmitWait(ctx, model.Query{Consumer: 0, N: 1, Work: 0.1}) }()
				select {
				case tk := <-ch:
					if tk.allocated.Load() {
						t.Fatal("SubmitWait mediated while the shard was in service")
					}
					return tk
				case <-time.After(5 * time.Second):
					t.Fatal("SubmitWait did not queue while the shard was in service")
					return nil
				}
			}
			first := submitWait() // nothing queued, but the shard is in service
			queued := eng.Submit(ctx, model.Query{Consumer: 0, N: 1, Work: 0.1})
			last := submitWait() // behind a queued Submit
			unpark()
			for _, tk := range []*Ticket{<-stalled, first, queued, last} {
				if _, err := tk.Allocation(); err != nil {
					t.Fatal(err)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			want := []model.QueryID{1, first.Query().ID, queued.Query().ID, last.Query().ID}
			if !slices.Equal(order, want) {
				t.Fatalf("mediation order %v, want %v", order, want)
			}
		})
	}
}

// TestCloseWaitsForSubmitWaitMediation: Close returns only after a
// mediation a SubmitWait caller is running completes, and with persistence
// that allocation is journaled before the final snapshot — a warm restart
// finds it in the snapshot and replays nothing.
func TestCloseWaitsForSubmitWaitMediation(t *testing.T) {
	for _, persisted := range []bool{false, true} {
		t.Run(fmt.Sprintf("persisted=%v", persisted), func(t *testing.T) {
			dir := ""
			if persisted {
				dir = t.TempDir()
			}
			var clock atomic.Int64
			eng := buildPersistEngine(t, dir, &clock)
			blocker, entered, release := blockingConsumer(9)
			eng.RegisterConsumer(blocker)

			submitted := make(chan *Ticket, 1)
			go func() { submitted <- eng.SubmitWait(context.Background(), model.Query{Consumer: 9, N: 1, Work: 1}) }()
			<-entered
			closed := make(chan struct{})
			go func() {
				eng.Close()
				close(closed)
			}()
			select {
			case <-closed:
				t.Fatal("Close returned while a SubmitWait mediation was in flight")
			case <-time.After(50 * time.Millisecond):
			}
			close(release)
			<-closed
			if _, err := (<-submitted).Allocation(); err != nil {
				t.Fatalf("in-flight query failed across Close: %v", err)
			}
			if !persisted {
				return
			}
			satC := eng.ConsumerSatisfaction(9)
			eng2 := buildPersistEngine(t, dir, &clock)
			defer eng2.Close()
			st := eng2.Stats()
			if !st.Persistence.Restore.SnapshotLoaded || st.Persistence.Restore.ReplayedRecords != 0 {
				t.Fatalf("restore %+v, want the final snapshot and nothing to replay", st.Persistence.Restore)
			}
			if n := eng2.Registry().Consumer(9).Interactions(); n != 1 {
				t.Fatalf("restored consumer 9 has %d interactions, want the in-flight query's 1", n)
			}
			if got := eng2.ConsumerSatisfaction(9); got != satC {
				t.Fatalf("restored δs(c) %v, want %v", got, satC)
			}
		})
	}
}

// TestSubmitWaitShedsLikeSubmit: a deadline, brownout or queue-full shed
// through SubmitWait fails the ticket with the same *ShedError as through
// Submit.
func TestSubmitWaitShedsLikeSubmit(t *testing.T) {
	spec := qos.Spec{
		Classes: []qos.ClassSpec{
			{Name: qos.Interactive, Weight: 8},
			{Name: qos.Batch, Weight: 2, MaxQueueDepth: 1},
			{Name: qos.Background, Weight: 1},
		},
		DefaultClass: qos.Interactive,
	}
	eng, _ := newTestEngine(t, withQoS(spec), WithConcurrency(1))
	ctx := context.Background()
	q := model.Query{Consumer: 0, N: 1, Work: 0.1}
	shedsAlike := func(name, reason string, opts ...QueryOption) {
		t.Helper()
		var got [2]*ShedError
		for i, submit := range []func(context.Context, model.Query, ...QueryOption) *Ticket{eng.Submit, eng.SubmitWait} {
			_, err := submit(ctx, q, opts...).Allocation()
			se, ok := AsShedError(err)
			if !ok || se.Reason != reason {
				t.Fatalf("%s, entry %d: error %v, want a %s *ShedError", name, i, err, reason)
			}
			got[i] = se
		}
		if a, b := got[0], got[1]; a.Class != b.Class || a.QueueDepth != b.QueueDepth {
			t.Fatalf("%s: Submit shed %+v, SubmitWait shed %+v", name, a, b)
		}
	}

	// No service time observed yet: the deadline lapses before service.
	shedsAlike("expired deadline", qos.ReasonDeadline, WithDeadline(time.Nanosecond))
	if _, err := eng.Submit(ctx, q).Allocation(); err != nil {
		t.Fatal(err)
	}
	// Now the EWMA foresees the overrun at admission.
	shedsAlike("infeasible deadline", qos.ReasonDeadline, WithDeadline(time.Nanosecond))
	eng.SetBrownout(1)
	shedsAlike("brownout", qos.ReasonBrownout, WithQoSClass(qos.Background))
	eng.SetBrownout(0)

	blocker, entered, release := blockingConsumer(9)
	eng.RegisterConsumer(blocker)
	inService := eng.Submit(ctx, model.Query{Consumer: 9, N: 1, Work: 0.1})
	<-entered
	queued := eng.Submit(ctx, q, WithQoSClass(qos.Batch))
	shedsAlike("queue full", qos.ReasonQueueFull, WithQoSClass(qos.Batch))
	close(release)
	for _, tk := range []*Ticket{inService, queued} {
		if _, err := tk.Allocation(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSubmitWaitConcurrentOrder: submitters mixing SubmitWait and Submit on
// shared shards — so queries run on submitters and on shard loops at once —
// still mediate each consumer's queries in submission order, every ticket
// completes, and the shard ledgers balance. The providers are not workers,
// so nothing waits on execution. Run with -race.
func TestSubmitWaitConcurrentOrder(t *testing.T) {
	var mu sync.Mutex
	order := make(map[model.ConsumerID][]model.QueryID)
	obs := event.Funcs{Allocation: func(a *model.Allocation, _ int) {
		mu.Lock()
		order[a.Query.Consumer] = append(order[a.Query.Consumer], a.Query.ID)
		mu.Unlock()
	}}
	eng := mustEngine(t, WithWindow(30), WithConcurrency(2), WithPolicy(sbqaSpec(1)), WithObserver(obs))
	for i := 0; i < 8; i++ {
		eng.RegisterProvider(&constProvider{id: model.ProviderID(i), pi: model.Intention(float64(i%5)/5 - 0.2)})
	}
	for c := 0; c < 4; c++ {
		eng.RegisterConsumer(FuncConsumer{ID: model.ConsumerID(c), Fn: func(model.Query, model.ProviderSnapshot) model.Intention { return 0.4 }})
	}
	const perConsumer = 200
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c model.ConsumerID) {
			defer wg.Done()
			var async []*Ticket
			for i := 0; i < perConsumer; i++ {
				q := model.Query{Consumer: c, N: 1, Work: 1}
				if i%3 == 0 {
					async = append(async, eng.Submit(context.Background(), q))
					continue
				}
				if _, err := eng.SubmitWait(context.Background(), q).Allocation(); err != nil {
					t.Error(err)
					return
				}
			}
			for _, tk := range async {
				if _, err := tk.Allocation(); err != nil {
					t.Error(err)
				}
			}
		}(model.ConsumerID(c))
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	for c, ids := range order {
		if len(ids) != perConsumer || !slices.IsSorted(ids) {
			t.Errorf("consumer %d: %d allocations, sorted %v; want %d in submission order", c, len(ids), slices.IsSorted(ids), perConsumer)
		}
	}
	for i, sh := range eng.Stats().Shards {
		if sh.QueueEnqueued != sh.QueueDequeued || sh.QueueDepth != 0 {
			t.Errorf("shard %d: enqueued %d, dequeued %d, depth %d", i, sh.QueueEnqueued, sh.QueueDequeued, sh.QueueDepth)
		}
	}
}
