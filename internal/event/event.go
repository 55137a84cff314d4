// Package event defines the engine's observability contract: a typed
// Observer interface, a first-class event stream covering the whole
// allocation lifecycle — mediation outcomes (success and the two distinct
// failure modes), dispatch failures, participant registration churn, and
// periodic satisfaction snapshots.
//
// The package sits below every runtime layer (it imports only
// internal/model) so the mediator, the directory, and the live engine can
// all emit into one observer without import cycles.
//
// # Delivery semantics
//
// Events are emitted synchronously on the path that produced them: an
// OnAllocation call runs on the mediating shard while it still holds the
// shard lock, OnProviderRegistered runs on the registering goroutine (after
// the directory lock is released), and so on. Observers must therefore be
// fast and must never call back into the engine from the callback; buffer
// into a channel and process elsewhere if the handler does real work. With
// several engine shards an observer is invoked concurrently and must be
// safe for concurrent use.
//
// Funcs is the one adapter: it turns free functions into an Observer, and
// its zero value ignores every event. An implementation embeds Funcs (or
// another Observer) and overrides the events it cares about, so adding a
// method to Observer is not a breaking change. Two observers compose the
// same way: a type embeds one and, in the methods it overrides, does its
// own work and then calls the embedded one — persist.Recorder journals an
// event and passes it on to the observer it embeds. No emitter checks its
// observer for nil: a slot nobody fills gets Discard where it is built.
//
// # Memory discipline
//
// Because events fire on the mediation hot path (often per query, under a
// shard lock), the event types themselves are allocation-free by design:
// every payload is a value type passed by value (Imputation, PolicyChange)
// or a pointer to engine-owned state the observer must not retain
// (*model.Allocation). Emitting an event allocates nothing — observers that
// need to keep a payload copy it into their own storage, the way
// persist.Recorder copies allocations into pooled journal records. Keep new
// event payloads to plain value structs; a payload that forces the emitter
// to heap-allocate per event would tax every query whether or not anyone is
// listening.
package event

import (
	"context"
	"errors"

	"sbqa/internal/model"
)

// Imputation reports that a participant stayed silent (or failed) during the
// batched intention collection of one mediation, and that the mediator
// substituted an intention derived from the participant's satisfaction
// registry state instead of stalling the mediation — the paper's autonomy
// assumption made operational: the system never waits on an unresponsive
// participant.
type Imputation struct {
	// Query is the query being mediated when the participant went silent.
	Query model.Query

	// Provider is the silent provider, or model.NoProvider when the silent
	// party was the consumer (whose whole CI batch was imputed).
	Provider model.ProviderID

	// Consumer is the query's consumer (the silent party when Provider is
	// model.NoProvider).
	Consumer model.ConsumerID

	// Err is the captured cause: context.DeadlineExceeded when the
	// participant missed its per-participant deadline, otherwise the error
	// the participant (or its transport) returned.
	Err error

	// Imputed is the intention substituted from registry state.
	Imputed model.Intention
}

// Timeout reports whether the imputation was caused by the participant
// missing its per-participant deadline (as opposed to an explicit error).
func (im Imputation) Timeout() bool { return errors.Is(im.Err, context.DeadlineExceeded) }

// PolicyChange reports that the engine accepted a new allocation policy:
// Reconfigure validated the spec, built one allocator per shard, and
// published the generation — each shard adopts it at its next mediation
// boundary (the event precedes per-shard adoption; Stats reports the
// generation each shard is actually running).
type PolicyChange struct {
	// Generation is the monotonically increasing number of the accepted
	// policy; generation 0 is the construction-time policy.
	Generation uint64

	// Name and Kind identify the accepted policy spec (the policy
	// package's vocabulary, carried as plain strings so this package
	// stays at the bottom of the import graph).
	Name string
	Kind string

	// Time is the engine-clock timestamp of the acceptance.
	Time float64
}

// PeerChange reports a cluster peer's health transition, emitted by the
// membership layer's heartbeat state machine (internal/cluster): a peer
// moved between "alive", "suspect", and "down". Ring recomputation and
// failover replay key off the transitions to and from "down"; "suspect" is
// advisory (the peer missed heartbeats but still owns its ranges). The
// states are carried as plain strings so this package stays at the bottom
// of the import graph, the same way PolicyChange carries its policy kind.
type PeerChange struct {
	// Node is the peer's cluster node ID.
	Node string

	// Addr is the peer's base URL.
	Addr string

	// From and To are the health states of the transition: one of
	// "alive", "suspect", "down".
	From string
	To   string

	// Err is the last heartbeat error for degradations ("" on recovery).
	Err string
}

// Shed reports that the engine refused a query at its shard queue instead
// of mediating it: the class-aware scheduler decided the query could not be
// served in time (reason "deadline"), the class's queue bound was reached
// (reason "queue_full"), or the brownout controller had widened shedding to
// the query's class (reason "brownout"). The submitter always receives a
// typed *live.ShedError for the same decision — this event is the
// observer-side record, emitted on the shedding goroutine after the ticket
// is failed. Class and Reason are plain strings (the qos package's
// vocabulary) so this package stays at the bottom of the import graph.
type Shed struct {
	// Query is the refused query.
	Query model.Query

	// Class is the resolved QoS class the query was queued under.
	Class string

	// Reason is one of "deadline", "queue_full", "brownout".
	Reason string

	// QueueDepth is the shard's total queued-query count at decision time.
	QueueDepth int

	// EstimatedWait is the scheduler's queue-wait estimate in seconds at
	// decision time (EWMA service time × queue depth); 0 when the shed was
	// not deadline-driven.
	EstimatedWait float64
}

// SatisfactionSnapshot is a periodic sample of every tracked participant's
// long-run satisfaction δs (Definitions 1-2 of the paper), emitted by the
// engine's snapshot ticker. The maps are owned by the receiver.
type SatisfactionSnapshot struct {
	// Time is the engine-clock timestamp of the sample, in seconds on the
	// mediation time axis (Config.NowFn's axis).
	Time float64

	// Consumers maps every tracked consumer to its δs(c) ∈ [0, 1].
	Consumers map[model.ConsumerID]float64

	// Providers maps every tracked provider to its δs(p) ∈ [0, 1].
	Providers map[model.ProviderID]float64
}

// Observer receives the engine's lifecycle events. All methods may be
// invoked concurrently; implementations must not block. Embed Funcs to stay
// forward-compatible with new events.
type Observer interface {
	// OnAllocation observes every successful mediation: the completed
	// allocation (proposed set, selection, intentions, scores) and the size
	// of the candidate set P_q it was drawn from. The allocation must not
	// be mutated or retained past the call; copy what you need.
	OnAllocation(a *model.Allocation, candidates int)

	// OnRejection observes a failed mediation. reason distinguishes the
	// failure modes: errors.Is(reason, mediator.ErrNoCandidates) means no
	// capacity existed, errors.Is(reason, mediator.ErrStaleSelection) means
	// capacity churned away mid-mediation (retryable); anything else is a
	// malformed or misaddressed query.
	OnRejection(q model.Query, reason error)

	// OnDispatchFailure observes an allocation that mediated successfully
	// but could not be (fully) delivered to its selected workers. a may be
	// nil when the selection went stale before hand-off; err is the
	// engine's dispatch error (a *live.DispatchError when partial delivery
	// information is available).
	OnDispatchFailure(q model.Query, a *model.Allocation, err error)

	// OnProviderRegistered observes a provider joining the directory.
	OnProviderRegistered(id model.ProviderID)

	// OnProviderDeparted observes a provider leaving the directory.
	OnProviderDeparted(id model.ProviderID)

	// OnConsumerRegistered observes a consumer joining the directory.
	OnConsumerRegistered(id model.ConsumerID)

	// OnConsumerDeparted observes a consumer leaving the directory.
	OnConsumerDeparted(id model.ConsumerID)

	// OnIntentionImputed observes one silent participant during batched
	// intention collection: the mediation proceeded with an intention
	// imputed from the participant's satisfaction registry state. Events
	// are emitted on the mediating goroutine after the batch collection
	// completes, in candidate order (the consumer's event, if any, first).
	OnIntentionImputed(im Imputation)

	// OnShed observes a query the shard scheduler refused (deadline
	// infeasible, class queue full, or brownout). Emitted on the shedding
	// goroutine after the submitter's ticket is failed with the matching
	// *live.ShedError; never emitted for gateway rate-limit rejections,
	// which are refused before the query reaches the engine.
	OnShed(s Shed)

	// OnSatisfactionSnapshot observes a periodic satisfaction sample (see
	// live.WithSnapshotInterval). The snapshot is owned by the receiver.
	OnSatisfactionSnapshot(snap SatisfactionSnapshot)

	// OnPolicyChange observes an accepted allocation-policy change (see
	// the engine's Reconfigure). Emitted on the reconfiguring goroutine
	// after the new generation is published to every shard.
	OnPolicyChange(pc PolicyChange)

	// OnPeerChange observes a cluster peer's health transition (see
	// internal/cluster). Emitted on the heartbeat goroutine after the
	// membership state machine records the transition and recomputes the
	// live ring; never emitted by a single-node engine.
	OnPeerChange(pc PeerChange)
}

// Funcs adapts free functions to Observer; nil fields ignore their event.
// The zero Funcs is a valid no-op observer.
type Funcs struct {
	Allocation           func(a *model.Allocation, candidates int)
	Rejection            func(q model.Query, reason error)
	DispatchFailure      func(q model.Query, a *model.Allocation, err error)
	ProviderRegistered   func(id model.ProviderID)
	ProviderDeparted     func(id model.ProviderID)
	ConsumerRegistered   func(id model.ConsumerID)
	ConsumerDeparted     func(id model.ConsumerID)
	IntentionImputed     func(im Imputation)
	Shed                 func(s Shed)
	SatisfactionSnapshot func(snap SatisfactionSnapshot)
	PolicyChange         func(pc PolicyChange)
	PeerChange           func(pc PeerChange)
}

// Discard is the zero Funcs as an Observer, boxed once: the default of
// every observer slot nobody fills, so a default costs no allocation.
var Discard Observer = Funcs{}

// OnAllocation implements Observer.
func (f Funcs) OnAllocation(a *model.Allocation, candidates int) {
	if f.Allocation != nil {
		f.Allocation(a, candidates)
	}
}

// OnRejection implements Observer.
func (f Funcs) OnRejection(q model.Query, reason error) {
	if f.Rejection != nil {
		f.Rejection(q, reason)
	}
}

// OnDispatchFailure implements Observer.
func (f Funcs) OnDispatchFailure(q model.Query, a *model.Allocation, err error) {
	if f.DispatchFailure != nil {
		f.DispatchFailure(q, a, err)
	}
}

// OnProviderRegistered implements Observer.
func (f Funcs) OnProviderRegistered(id model.ProviderID) {
	if f.ProviderRegistered != nil {
		f.ProviderRegistered(id)
	}
}

// OnProviderDeparted implements Observer.
func (f Funcs) OnProviderDeparted(id model.ProviderID) {
	if f.ProviderDeparted != nil {
		f.ProviderDeparted(id)
	}
}

// OnConsumerRegistered implements Observer.
func (f Funcs) OnConsumerRegistered(id model.ConsumerID) {
	if f.ConsumerRegistered != nil {
		f.ConsumerRegistered(id)
	}
}

// OnConsumerDeparted implements Observer.
func (f Funcs) OnConsumerDeparted(id model.ConsumerID) {
	if f.ConsumerDeparted != nil {
		f.ConsumerDeparted(id)
	}
}

// OnIntentionImputed implements Observer.
func (f Funcs) OnIntentionImputed(im Imputation) {
	if f.IntentionImputed != nil {
		f.IntentionImputed(im)
	}
}

// OnShed implements Observer.
func (f Funcs) OnShed(s Shed) {
	if f.Shed != nil {
		f.Shed(s)
	}
}

// OnSatisfactionSnapshot implements Observer.
func (f Funcs) OnSatisfactionSnapshot(snap SatisfactionSnapshot) {
	if f.SatisfactionSnapshot != nil {
		f.SatisfactionSnapshot(snap)
	}
}

// OnPolicyChange implements Observer.
func (f Funcs) OnPolicyChange(pc PolicyChange) {
	if f.PolicyChange != nil {
		f.PolicyChange(pc)
	}
}

// OnPeerChange implements Observer.
func (f Funcs) OnPeerChange(pc PeerChange) {
	if f.PeerChange != nil {
		f.PeerChange(pc)
	}
}
