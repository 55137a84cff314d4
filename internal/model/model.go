// Package model defines the domain types shared by every SbQA package:
// participant identifiers, queries, intention values, and the descriptors
// the mediator exchanges with consumers and providers during a mediation.
//
// The vocabulary follows the paper (Quiané-Ruiz, Lamarre, Valduriez,
// "SbQA: A Self-Adaptable Query Allocation Process", ICDE 2009):
//
//   - a consumer c ∈ C issues queries and has intentions CI_q[p] ∈ [-1, 1]
//     about allocating query q to provider p;
//   - a provider p ∈ P performs queries and has intentions PI_q[p] ∈ [-1, 1]
//     about performing q;
//   - the mediator allocates each query q to q.N providers among the set P_q
//     of providers able to perform it.
package model

import "fmt"

// ConsumerID identifies a consumer (a BOINC project, an e-commerce buyer, a
// Web-service client...). IDs are dense small integers so that experiments
// can use them as slice indices.
type ConsumerID int

// ProviderID identifies a provider (a BOINC volunteer, a seller, a server...).
type ProviderID int

// QueryID identifies a query instance. IDs are unique per simulation run and
// strictly increasing in issue order.
type QueryID int64

// NoProvider is a sentinel for "no provider"; valid ProviderIDs are >= 0.
const NoProvider ProviderID = -1

// NoConsumer is a sentinel for "no consumer"; valid ConsumerIDs are >= 0.
const NoConsumer ConsumerID = -1

// Intention is a participant's interest level in an allocation, in [-1, 1].
// -1 means "absolutely against", 0 indifferent, +1 "absolutely in favour".
type Intention float64

// Clamp returns the intention clamped to the legal interval [-1, 1]; NaN
// carries no preference and maps to 0 (indifferent).
func (i Intention) Clamp() Intention {
	if i != i {
		return 0
	}
	if i < -1 {
		return -1
	}
	if i > 1 {
		return 1
	}
	return i
}

// Unit maps the intention from [-1, 1] onto [0, 1]; this is the (x+1)/2
// transform used throughout the satisfaction definitions of the paper.
func (i Intention) Unit() float64 { return (float64(i) + 1) / 2 }

// Query is one unit of work to allocate. In BOINC terms it is an independent
// computational task; in e-commerce terms, a purchase request.
type Query struct {
	ID       QueryID
	Consumer ConsumerID

	// Class partitions queries by the kind of work they carry (in BOINC,
	// the project application; in a marketplace, the product category).
	// Providers may restrict the classes they can perform.
	Class int

	// N is the number of results the consumer requires (q.n in the paper).
	// BOINC consumers replicate tasks (N > 1) to validate results returned
	// by possibly-malicious volunteers.
	N int

	// Work is the service demand in abstract work units; a provider with
	// capacity cap executes the query in Work/cap simulated seconds.
	Work float64

	// IssuedAt is the simulation time at which the consumer issued q.
	IssuedAt float64

	// QoS names the query's service class for admission control and shard
	// scheduling ("interactive", "batch", "background", or any class the
	// running qos policy declares). Empty means the policy's default
	// class. Orthogonal to Class, which partitions by the kind of work.
	QoS string

	// Deadline is the absolute time (same axis as IssuedAt) by which the
	// query must start mediation: the scheduler sheds it with a typed
	// error when its estimated queue wait overruns the deadline, and
	// serves earlier deadlines first within a class. Zero means none.
	Deadline float64

	// Trace carries the query's tracing state (see TraceContext). The
	// zero value — unsampled — is the hot-path default.
	Trace TraceContext
}

// TraceID identifies one end-to-end trace: 128 bits, rendered as 32 hex
// digits in the W3C traceparent form. The zero value means "no trace".
type TraceID struct {
	Hi, Lo uint64
}

// IsZero reports whether the ID is the no-trace sentinel.
func (t TraceID) IsZero() bool { return t.Hi == 0 && t.Lo == 0 }

// String renders the 32-hex-digit W3C form.
func (t TraceID) String() string { return fmt.Sprintf("%016x%016x", t.Hi, t.Lo) }

// TraceContext is the per-query tracing state stamped onto a Query at
// submission and propagated by value through the pipeline (and, rendered
// as a W3C traceparent header, across cluster forwards and participant
// webhooks). Sampled gates every instrumentation site: when false —
// the common case — the hot path takes a single predictable branch per
// site and allocates nothing.
type TraceContext struct {
	ID      TraceID
	Span    uint64 // parent span ID for cross-process propagation
	Sampled bool
	// Decided records that a sampler already ran for this query (sampled or
	// not), so a downstream layer — the engine behind a gateway that made
	// the call — never draws a second sampling decision for it.
	Decided bool
}

// Validate reports whether the query is well formed.
func (q Query) Validate() error {
	if q.Consumer < 0 {
		return fmt.Errorf("model: query %d has invalid consumer %d", q.ID, q.Consumer)
	}
	if q.N < 1 {
		return fmt.Errorf("model: query %d requires %d results; want >= 1", q.ID, q.N)
	}
	if q.Work <= 0 {
		return fmt.Errorf("model: query %d has non-positive work %v", q.ID, q.Work)
	}
	return nil
}

// ProviderSnapshot is the mediator-visible state of one candidate provider at
// mediation time. Allocators must base decisions only on this information
// (plus the intentions they explicitly collect), never on private state.
type ProviderSnapshot struct {
	ID ProviderID

	// Utilization in [0, 1]: fraction of the provider's capacity currently
	// committed. KnBest's second stage keeps the kn least-utilized
	// candidates.
	Utilization float64

	// QueueLen is the number of queries queued at the provider (including
	// the one in service, if any).
	QueueLen int

	// Capacity is the provider's processing speed in work units per second.
	Capacity float64

	// PendingWork is the total work units enqueued, used to estimate the
	// completion delay a new query would observe.
	PendingWork float64
}

// ExpectedDelay estimates the response time a new query with the given work
// would observe at this provider: queued work plus its own service time.
func (s ProviderSnapshot) ExpectedDelay(work float64) float64 {
	if s.Capacity <= 0 {
		return 0
	}
	return (s.PendingWork + work) / s.Capacity
}

// Allocation is the outcome of mediating one query.
type Allocation struct {
	Query Query

	// Selected lists the providers that received the query, best ranked
	// first (the paper's ranking vector →R truncated to min(q.N, kn)).
	Selected []ProviderID

	// Proposed lists every provider that took part in the final mediation
	// step (set Kn in the paper). The mediator sends the mediation result
	// to all of them; providers compute satisfaction over *proposed*
	// queries, so this set defines their interaction memory.
	Proposed []ProviderID

	// ConsumerIntentions records CI_q[p] for each proposed provider, and
	// ProviderIntentions records PI_q[p]; keyed by position in Proposed.
	ConsumerIntentions []Intention
	ProviderIntentions []Intention

	// Scores holds the allocator's score for each proposed provider
	// (position-aligned with Proposed); informational, nil for allocators
	// that do not score (e.g. random) and, under SbQA, for unsampled
	// queries: SbQA ranks without computing the literal scores and fills
	// them in only where they are read, as Explain is.
	Scores []float64

	// Explain is the ranked score breakdown behind this allocation,
	// populated only for sampled queries (q.Trace.Sampled); nil — and
	// therefore alloc-free — otherwise.
	Explain *Explain
}

// Explain records why an allocation came out the way it did: every ranked
// candidate with the score components that placed it there. Built only
// for sampled queries — one heap allocation per sampled mediation.
type Explain struct {
	// Allocator names the technique that produced the ranking.
	Allocator string

	// SatC is the consumer's long-run satisfaction δs(c) feeding the
	// adaptive ω (zero for allocators that do not consult it).
	SatC float64

	// Candidates is the size of the candidate set the allocator saw
	// before any Kn truncation.
	Candidates int

	// Entries lists every ranked candidate, best first.
	Entries []ExplainEntry
}

// ExplainEntry is one candidate's slice of an Explain record.
type ExplainEntry struct {
	// Rank is the candidate's 1-based position in the ranking vector →R
	// (1 = best; the first q.N entries were selected).
	Rank     int
	Provider ProviderID

	// CI and PI are the intentions that entered the score; SatP the
	// provider's satisfaction δs(p); Omega the balance the score used.
	CI    Intention
	PI    Intention
	SatP  float64
	Omega float64
	Score float64

	// CIImputed / PIImputed flag intentions imputed from registry state
	// because the participant stayed silent.
	CIImputed bool
	PIImputed bool
}

// Selected reports whether provider p is among the selected providers.
func (a *Allocation) SelectedContains(p ProviderID) bool {
	for _, sp := range a.Selected {
		if sp == p {
			return true
		}
	}
	return false
}

// String implements fmt.Stringer for debugging output.
func (a *Allocation) String() string {
	return fmt.Sprintf("alloc{q=%d c=%d sel=%v of %v}", a.Query.ID, a.Query.Consumer, a.Selected, a.Proposed)
}
