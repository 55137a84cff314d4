package live

import (
	"context"
	"sync"
	"sync/atomic"

	"sbqa/internal/model"
)

// Ticket is the handle for one submitted query. Engine.Submit returns the
// ticket immediately — the engine-assigned QueryID is readable at once via
// Query — and the ticket then moves through two stages (Engine.SubmitWait
// may return it already allocated):
//
//  1. allocated: mediation and worker hand-off have completed.
//     Allocation blocks until here and returns the allocation and the
//     submission error (nil, a mediation error such as
//     mediator.ErrNoCandidates, or a *DispatchError).
//  2. done: every worker that accepted the query has delivered its Result.
//     Done's channel closes here; Await blocks for it and returns the
//     collected per-worker results.
//
// Workers deliver to the ticket itself: a dispatched task carries its *Ticket,
// and the goroutine serving the worker's backlog calls deliver when the query
// has executed (or abandon when the worker shuts down first). deliver forwards
// the Result to the WithResults channel when there is one, then retains it and
// counts the delivery; the last one completes the ticket. Nothing is spawned
// per query for this. A full WithResults channel therefore blocks the
// delivering worker: size it to the traffic or drain it. Allocations to
// registered providers that are not dispatchable *Worker instances produce no
// Results (delivery is out of band), so a ticket completes when its dispatched
// workers — not its full selection — have reported.
//
// A ticket always completes: mediation failures complete it immediately,
// partial dispatch failures complete it when the accepting workers finish
// (the *DispatchError from Allocation or Await lists the remainder to
// retry), and a worker closed mid-execution abandons its queued tasks on
// their tickets instead of leaving them to wait forever.
type Ticket struct {
	query model.Query

	// userResults is the optional caller-supplied channel (WithResults);
	// every delivered result is forwarded to it.
	userResults chan<- Result

	// workerSlots hold the executors of the selection while they fit,
	// resolved under the shard lock right after mediation and consumed by
	// the hand-off that follows it; finish clears them.
	workerSlots [2]Executor

	// alloc/err hold the outcome once finish has opened latch (and
	// allocated).
	latch     sync.WaitGroup
	allocated atomic.Bool
	alloc     *model.Allocation
	err       error

	// mu guards pending, done and results. pending counts the
	// deliveries still owed plus the dispatcher's hold until finish, so the
	// ticket completes only once allocated, counting early deliveries too;
	// done is made only when asked for while pending, and closed at zero.
	mu         sync.Mutex
	pending    int
	done       chan struct{}
	results    []Result
	resultSlot [1]Result
}

// closedDone is what Done returns once a ticket is complete.
var closedDone = make(chan struct{})

func init() { close(closedDone) }

// newTicket returns a ticket for q. userResults may be nil.
func newTicket(q model.Query, userResults chan<- Result) *Ticket {
	t := &Ticket{query: q, userResults: userResults, pending: 1}
	t.latch.Add(1)
	return t
}

// expect adds the n hand-offs the dispatcher is about to attempt to the
// countdown; each comes off it again through deliver, abandon or refused.
func (t *Ticket) expect(n int) {
	t.mu.Lock()
	t.pending += n
	t.results = t.resultSlot[:0]
	if n > 1 {
		t.results = make([]Result, 0, n)
	}
	t.mu.Unlock()
}

// refused takes the n attempted hand-offs that no worker accepted back off
// the countdown.
func (t *Ticket) refused(n int) {
	t.mu.Lock()
	t.settle(n)
	t.mu.Unlock()
}

// settle takes n off the countdown; at zero it closes done, if made. Callers hold mu.
func (t *Ticket) settle(n int) {
	if t.pending -= n; t.pending == 0 && t.done != nil {
		close(t.done)
	}
}

// deliver is the accepting worker's completion call: forward, then retain
// and count.
func (t *Ticket) deliver(r Result) {
	if t.userResults != nil {
		t.userResults <- r
	}
	t.mu.Lock()
	t.results = append(t.results, r)
	t.settle(1)
	t.mu.Unlock()
}

// abandon is the completion call of an accepting worker that shut down
// before executing the query.
func (t *Ticket) abandon() {
	t.mu.Lock()
	t.settle(1)
	t.mu.Unlock()
}

// finish completes the allocation stage: it drops the executors, which a
// finished ticket must not keep alive, publishes the outcome, opens the
// latch and gives up the dispatcher's hold.
func (t *Ticket) finish(a *model.Allocation, err error) {
	clear(t.workerSlots[:])
	t.alloc = a
	t.err = err
	t.allocated.Store(true)
	t.latch.Done()
	t.mu.Lock()
	t.settle(1)
	t.mu.Unlock()
}

// Query returns the submitted query with its engine-assigned ID and issue
// timestamp — available immediately, before mediation completes.
func (t *Ticket) Query() model.Query { return t.query }

// Allocation blocks until mediation and worker hand-off have completed and
// returns the allocation and the submission error. The error is nil on full
// delivery; a *DispatchError (matching ErrDispatch) on partial or failed
// delivery — the allocation is still returned when mediation itself
// succeeded; or a mediation error (mediator.ErrNoCandidates, a validation
// error) with a nil allocation.
func (t *Ticket) Allocation() (*model.Allocation, error) {
	t.latch.Wait()
	return t.alloc, t.err
}

// Done returns a channel that is closed once the ticket is complete: every
// worker that accepted the query has delivered its Result (immediately when
// submission failed).
func (t *Ticket) Done() <-chan struct{} {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pending == 0 {
		return closedDone
	}
	if t.done == nil {
		t.done = make(chan struct{})
	}
	return t.done
}

// Await blocks until the ticket is complete or ctx is done. It returns the
// collected per-worker results and the submission error: both may be
// non-zero at once — a partial dispatch failure yields the accepting
// workers' results and a *DispatchError naming the undelivered remainder.
// When ctx expires first, Await returns (nil, ctx.Err()); the workers keep
// delivering to the ticket and Await may be called again.
func (t *Ticket) Await(ctx context.Context) ([]Result, error) {
	select {
	case <-t.Done():
		return t.results, t.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Err returns the submission error, or nil while mediation and hand-off are
// still in flight (use Allocation to synchronize).
func (t *Ticket) Err() error {
	if !t.allocated.Load() {
		return nil
	}
	return t.err
}
