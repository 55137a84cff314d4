package live

import (
	"context"

	"sbqa/internal/model"
)

// Ticket is the handle for one asynchronously submitted query. Submission
// (Engine.Submit) returns the ticket immediately — the engine-assigned
// QueryID is readable at once via Query — and the ticket then moves through
// two stages:
//
//  1. allocated: mediation and worker hand-off have completed.
//     Allocation blocks until here and returns the allocation and the
//     submission error (nil, a mediation error such as
//     mediator.ErrNoCandidates, or a *DispatchError).
//  2. done: every worker that accepted the query has delivered its Result.
//     Done's channel closes here; Await blocks for it; Results returns the
//     collected per-worker results.
//
// On the collecting path (the Engine default) the ticket owns a private
// result channel sized to the selection, so workers never block on result
// delivery and the caller needs no shared results channel. Allocations to
// registered providers that are not dispatchable *Worker instances produce
// no Results (delivery is out of band), so a ticket completes when its
// dispatched workers — not its full selection — have reported.
//
// A ticket always completes: mediation failures complete it immediately,
// partial dispatch failures complete it when the accepting workers finish
// (the *DispatchError from Allocation or Await lists the remainder to
// retry), and a worker closed mid-execution signals abandonment for its
// queued tasks, which the collector accounts for (see Abandoned) instead
// of waiting forever.
type Ticket struct {
	query model.Query

	// userResults is the optional caller-supplied channel (WithResults);
	// collected results are forwarded to it.
	userResults chan<- Result

	// collect selects the ticket-owned result path. FireAndForget switches
	// it off: userResults goes straight to the workers and the ticket is
	// done at hand-off.
	collect bool

	// workers are the dispatchable executors of the selection, resolved
	// under the shard lock right after mediation and consumed by the
	// hand-off that follows it.
	workers []Executor

	// resCh receives the dispatched workers' results on the collecting
	// path; created at dispatch time, sized to the selection. abandonCh
	// receives the IDs of accepted workers that shut down before
	// delivering, so the collector accounts for every accepted task.
	resCh     chan Result
	abandonCh chan model.ProviderID

	// alloc/err hold the mediation outcome from the shard lock's release
	// on, and the submission's final outcome once allocated is closed.
	allocated chan struct{}
	alloc     *model.Allocation
	err       error

	done      chan struct{} // closed once results are complete
	results   []Result
	abandoned []model.ProviderID
}

// newTicket returns a ticket for q. userResults may be nil; collect selects
// the ticket-owned result path (see Ticket).
func newTicket(q model.Query, userResults chan<- Result, collect bool) *Ticket {
	return &Ticket{
		query:       q,
		userResults: userResults,
		collect:     collect,
		allocated:   make(chan struct{}),
		done:        make(chan struct{}),
	}
}

// finish completes the allocation stage: it publishes the allocation and
// error, then either closes done immediately (nothing to collect) or spawns
// the collector that accounts for every accepted worker — a delivered
// Result or an abandonment signal from a worker that shut down first —
// so the ticket always completes, even under worker churn.
func (t *Ticket) finish(a *model.Allocation, err error, resCh chan Result, expected int) {
	t.alloc = a
	t.err = err
	close(t.allocated)
	if expected == 0 || resCh == nil {
		close(t.done)
		return
	}
	go func() {
		for i := 0; i < expected; i++ {
			select {
			case r := <-resCh:
				t.results = append(t.results, r)
				if t.userResults != nil {
					t.userResults <- r
				}
			case id := <-t.abandonCh:
				t.abandoned = append(t.abandoned, id)
			}
		}
		close(t.done)
	}()
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
	<-t.allocated
	return t.alloc, t.err
}

// Done returns a channel that is closed once the ticket is complete: every
// worker that accepted the query has delivered its Result (immediately, on
// the non-collecting path or when submission failed).
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Await blocks until the ticket is complete or ctx is done. It returns the
// collected per-worker results and the submission error: both may be
// non-zero at once — a partial dispatch failure yields the accepting
// workers' results and a *DispatchError naming the undelivered remainder.
// When ctx expires first, Await returns (nil, ctx.Err()); the ticket keeps
// collecting in the background and Await may be called again.
func (t *Ticket) Await(ctx context.Context) ([]Result, error) {
	select {
	case <-t.done:
		return t.results, t.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Results returns the collected per-worker results, or nil while the ticket
// is still in flight (use Await or Done to synchronize). It may hold fewer
// entries than the accepted selection when workers shut down mid-execution;
// Abandoned names those workers.
func (t *Ticket) Results() []Result {
	select {
	case <-t.done:
		return t.results
	default:
		return nil
	}
}

// Abandoned returns the accepted workers that shut down before delivering
// their result (nil while the ticket is in flight, and on the
// fire-and-forget path, where abandonment is not tracked). An abandoned
// slot is the same retry situation as a DispatchError.Failed entry: the
// query never executed there.
func (t *Ticket) Abandoned() []model.ProviderID {
	select {
	case <-t.done:
		return t.abandoned
	default:
		return nil
	}
}

// Err returns the submission error, or nil while mediation and hand-off are
// still in flight (use Allocation to synchronize).
func (t *Ticket) Err() error {
	select {
	case <-t.allocated:
		return t.err
	default:
		return nil
	}
}
