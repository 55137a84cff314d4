package live

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"sbqa/internal/model"
	"sbqa/internal/qos"
)

// TestSubmitAllocatesTicketAndAllocation: an awaited submission to
// dispatching workers allocates the ticket and the Allocation's three
// objects — no channel, queue item, executor list, result backing or option
// closure of its own. A second selected worker costs the result backing.
func TestSubmitAllocatesTicketAndAllocation(t *testing.T) {
	eng := mustEngine(t, WithWindow(50), WithConcurrency(1), WithPolicy(sbqaSpec(1)))
	for id := 0; id < 4; id++ {
		// Fast enough, with queue room enough, that no hand-off is refused
		// while the submissions are counted.
		w, err := NewWorker(model.ProviderID(id), 1e9, 4096, func(model.Query) model.Intention { return 0.5 })
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
		eng.RegisterWorker(w)
	}
	eng.RegisterConsumer(FuncConsumer{ID: 0, Fn: func(model.Query, model.ProviderSnapshot) model.Intention { return 0.4 }})
	for _, tc := range []struct {
		name  string
		n     int
		opts  []QueryOption
		most  float64
		exact bool
	}{
		{"one worker", 1, nil, 4, true},
		{"one worker, class and deadline", 1, []QueryOption{WithQoSClass(qos.Batch), WithDeadline(time.Minute)}, 4, true},
		{"two workers", 2, nil, 5, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := model.Query{Consumer: 0, N: tc.n, Work: 1}
			submit := func() {
				if _, err := eng.Submit(context.Background(), q, tc.opts...).Allocation(); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 100; i++ {
				submit() // grow the shard's scratch buffers
			}
			got := testing.AllocsPerRun(200, submit)
			if got > tc.most || tc.exact && got != tc.most {
				t.Fatalf("%v allocations per awaited submission, want %v (exactly: %v)", got, tc.most, tc.exact)
			}
		})
	}
}

// TestTicketContract pins the Ticket methods' promises around the latch and
// the done channel made on demand.
func TestTicketContract(t *testing.T) {
	errPartial := errors.New("partial")
	t.Run("Done after completion is closed", func(t *testing.T) {
		tk := newTicket(model.Query{ID: 1}, nil)
		tk.finish(nil, errPartial)
		select {
		case <-tk.Done():
		default:
			t.Fatal("Done of a completed ticket is not closed")
		}
	})
	t.Run("Done before completion closes on the last delivery", func(t *testing.T) {
		tk := newTicket(model.Query{ID: 1}, nil)
		tk.expect(1)
		tk.finish(&model.Allocation{}, nil)
		done := tk.Done()
		select {
		case <-done:
			t.Fatal("Done closed while a worker still owes its result")
		default:
		}
		tk.deliver(Result{Provider: 3})
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("Done never closed after the last delivery")
		}
	})
	t.Run("reads are nil in flight and final afterwards", func(t *testing.T) {
		tk := newTicket(model.Query{ID: 1}, nil)
		tk.expect(3)
		tk.deliver(Result{Provider: 1})
		tk.abandon()
		tk.refused(1)
		if tk.Err() != nil {
			t.Fatalf("in flight: Err %v; want nil", tk.Err())
		}
		tk.finish(&model.Allocation{}, errPartial)
		if err := tk.Err(); err != errPartial {
			t.Errorf("Err = %v, want %v", err, errPartial)
		}
		if r, err := tk.Await(context.Background()); len(r) != 1 || err != errPartial {
			t.Errorf("Await = %v, %v", r, err)
		}
	})
	t.Run("concurrent Allocation callers see one outcome", func(t *testing.T) {
		tk := newTicket(model.Query{ID: 1}, nil)
		want := &model.Allocation{}
		got := make([]*model.Allocation, 16)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], _ = tk.Allocation()
			}()
		}
		tk.finish(want, nil)
		wg.Wait()
		for i, a := range got {
			if a != want {
				t.Fatalf("caller %d got %p, want %p", i, a, want)
			}
		}
	})
	t.Run("a finished ticket holds no executor", func(t *testing.T) {
		eng, _ := newTestEngine(t)
		tk := eng.Submit(context.Background(), model.Query{Consumer: 1, N: 2, Work: 0.1})
		if _, err := tk.Allocation(); err != nil {
			t.Fatal(err)
		}
		if tk.workerSlots != [len(tk.workerSlots)]Executor{} {
			t.Fatalf("finished ticket keeps executors %v", tk.workerSlots)
		}
	})
}

// TestQueryOptionsLastWins: of two options of one kind the later wins, even
// when it is the zero value — a cleared class queues under the default
// class, and a zero deadline leaves the query's own deadline in force.
func TestQueryOptionsLastWins(t *testing.T) {
	spec := qos.Spec{
		Classes:      []qos.ClassSpec{{Name: qos.Interactive, Weight: 8}, {Name: qos.Background, Weight: 1}},
		DefaultClass: qos.Interactive,
	}
	eng, _ := newTestEngine(t, withQoS(spec))
	eng.SetBrownout(1) // background sheds at admission; the default class admits
	ctx := context.Background()

	tk := eng.Submit(ctx, model.Query{Consumer: 0, N: 1, Work: 1}, WithQoSClass(qos.Background), WithQoSClass(""))
	if _, err := tk.Allocation(); err != nil {
		t.Fatalf("cleared class: %v, want the default class to admit", err)
	}
	if tk.Query().QoS != "" {
		t.Errorf("cleared class queued as %q", tk.Query().QoS)
	}

	const own = 1e9 // the query's own deadline, far beyond any queue wait
	tk = eng.Submit(ctx, model.Query{Consumer: 0, N: 1, Work: 1, Deadline: own}, WithDeadline(time.Nanosecond), WithDeadline(0))
	if _, err := tk.Allocation(); err != nil {
		t.Fatalf("zeroed deadline: %v", err)
	}
	if d := tk.Query().Deadline; d != own {
		t.Errorf("deadline %v, want the query's own %v", d, own)
	}
}
