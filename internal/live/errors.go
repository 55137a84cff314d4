package live

import (
	"errors"
	"fmt"
	"strings"

	"sbqa/internal/mediator"
	"sbqa/internal/model"
)

// ErrDispatch reports that an allocation succeeded but the query could not
// be fully delivered: a selected worker shut down mid-flight, its queue was
// full, or (mediator.ErrStaleSelection, which the dispatch error wraps in
// that case) every selected provider unregistered before hand-off. When the
// caller's context was done during dispatch the context error is wrapped
// too, so errors.Is(err, context.Canceled) tells "stop" apart from the
// transient delivery races, which — unlike mediator.ErrNoCandidates — can
// be retried.
//
// Every dispatch failure is a *DispatchError matching this sentinel with
// errors.Is; the typed error carries which selected workers accepted the
// query before the failure and which did not, so a retry loop can resubmit
// only the undelivered remainder instead of re-executing the query on
// workers that already took it. The mediation is recorded in the
// satisfaction registry either way, since satisfaction measures the
// allocation decision (the paper's model), not delivery. In the
// stale-selection case the returned allocation is nil — nothing was handed
// to any worker, so that retry is clean.
var ErrDispatch = errors.New("live: selected worker rejected the query")

// DispatchError is the typed dispatch failure: an allocation mediated
// successfully but could not be (fully) delivered. It matches ErrDispatch
// with errors.Is, and additionally unwraps to the underlying cause (a done
// context, or mediator.ErrStaleSelection when the whole selection
// unregistered before hand-off).
//
// Dispatch attempts every selected worker even after one refuses, so
// Accepted and Failed together partition the workers the engine tried to
// hand the query to. Workers in Accepted keep the query — their Results
// still arrive — which is why a caller retrying the failure should
// re-submit with q.N = len(Failed) (or route to the Failed workers
// specifically) rather than re-run the whole allocation.
type DispatchError struct {
	// Query is the query that failed to (fully) dispatch, with its
	// engine-assigned ID.
	Query model.Query

	// Accepted lists the selected workers that took the query before the
	// failure was detected; they execute it and deliver their Results.
	Accepted []model.ProviderID

	// Failed lists the selected workers the query could not be delivered
	// to (shut down, queue full, or never reached because the context was
	// done). Empty together with Accepted when the selection went stale
	// before any hand-off was attempted.
	Failed []model.ProviderID

	// Err is the underlying cause when one exists: the caller's context
	// error, or mediator.ErrStaleSelection. Nil when workers simply
	// refused (shutdown or full queue).
	Err error
}

// Error implements error.
func (e *DispatchError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "live: dispatch of query %d incomplete", e.Query.ID)
	if len(e.Accepted) > 0 || len(e.Failed) > 0 {
		fmt.Fprintf(&b, " (accepted by %v, failed for %v)", e.Accepted, e.Failed)
	}
	if e.Err != nil {
		fmt.Fprintf(&b, ": %v", e.Err)
	}
	return b.String()
}

// Unwrap exposes the error chain: every DispatchError matches ErrDispatch,
// plus the underlying cause when one exists (so errors.Is sees
// context.Canceled, context.DeadlineExceeded, or
// mediator.ErrStaleSelection through it).
func (e *DispatchError) Unwrap() []error {
	if e.Err != nil {
		return []error{ErrDispatch, e.Err}
	}
	return []error{ErrDispatch}
}

// ErrShed reports that the engine refused a query at its shard queue
// instead of mediating it: the class-aware scheduler decided the deadline
// could not be met, the class's queue bound was reached, or the brownout
// controller had widened shedding to the query's class. Shedding is never
// silent — every refused query fails its ticket with a *ShedError matching
// this sentinel and emits an event.Shed carrying the same decision.
var ErrShed = errors.New("live: query shed by admission control")

// ShedError is the typed shed failure the submitter's Ticket resolves to
// when the shard scheduler refuses a query. It matches ErrShed with
// errors.Is and carries the decision the observer-side event.Shed records:
// which class refused, why, and how loaded the shard was.
type ShedError struct {
	// Query is the refused query, with its engine-assigned ID.
	Query model.Query

	// Class is the resolved QoS class the query was queued under.
	Class string

	// Reason is one of qos.ReasonDeadline ("deadline"),
	// qos.ReasonQueueFull ("queue_full"), qos.ReasonBrownout ("brownout").
	Reason string

	// QueueDepth is the shard's total queued-query count at decision time.
	QueueDepth int

	// EstimatedWait is the scheduler's queue-wait estimate in seconds at
	// decision time (EWMA mediation service time × queue depth); 0 when
	// the shed was not deadline-driven. Gateways surface it as
	// Retry-After.
	EstimatedWait float64
}

// Error implements error.
func (e *ShedError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "live: query %d shed (%s, class %q, depth %d", e.Query.ID, e.Reason, e.Class, e.QueueDepth)
	if e.EstimatedWait > 0 {
		fmt.Fprintf(&b, ", est wait %.3fs", e.EstimatedWait)
	}
	b.WriteString(")")
	return b.String()
}

// Unwrap makes every ShedError match ErrShed with errors.Is.
func (e *ShedError) Unwrap() error { return ErrShed }

// AsShedError unwraps err to its *ShedError, if it carries one.
func AsShedError(err error) (*ShedError, bool) {
	var se *ShedError
	ok := errors.As(err, &se)
	return se, ok
}

// dispatchErr folds the mediator's stale-selection failure into the
// engine's typed dispatch error: every selected provider unregistering
// before hand-off is the same transient delivery race as a worker shutting
// down mid-dispatch. Other errors pass through unchanged.
func dispatchErr(q model.Query, err error) error {
	if err != nil && errors.Is(err, mediator.ErrStaleSelection) {
		return &DispatchError{Query: q, Err: err}
	}
	return err
}
