// Package sbqa is a Go implementation of SbQA — the Satisfaction-based
// Query Allocation process of Quiané-Ruiz, Lamarre and Valduriez (ICDE
// 2009): the satisfaction model, the SQLB intention-balancing score, the
// KnBest two-stage provider selection, the baseline allocation techniques
// it is compared against, and a concurrent (goroutine-based) runtime for
// real embeddings.
//
// This file is the module's imported surface and nothing more: a name is
// here because cmd/sbqad, an example or the bench/ module names it (or the
// signature of such a name does). Everything else lives in internal/...,
// where the two binaries and the tests import it directly.
//
// # Quick start
//
//	allocator := sbqa.NewSbQA(sbqa.SbQAConfig{})      // adaptive ω, KnBest(20,10)
//	med := sbqa.NewMediator(allocator, sbqa.MediatorConfig{Window: 100})
//	med.RegisterConsumer(myConsumer)                  // your impl of sbqa.Consumer
//	med.RegisterProvider(myProvider)                  // your impl of sbqa.Provider
//	alloc, err := med.Mediate(ctx, now, sbqa.Query{Consumer: 0, N: 1, Work: 10})
//
// For a production embedding, run the asynchronous Engine instead (see
// NewEngine): Submit returns a *Ticket immediately, SubmitWait mediates on
// the caller's goroutine when the shard is idle (for a caller that waits
// for the allocation next), and tickets carry the allocation and the
// per-worker results. For a simulation, run a lab scenario on the same
// engine under a virtual clock (see Volunteering and RunScenario). Two
// binaries sit beside this package: cmd/sbqad serves the engine over HTTP,
// and cmd/sbqalab is the front door to the simulator — `sbqalab paper`
// regenerates the paper's scenario tables, `sbqalab play` is the
// interactive demo, `sbqalab list|run|report` drive the workload lab.
//
// # Model vocabulary
//
// Consumers issue queries; providers perform them; both are autonomous and
// express intentions in [-1, 1] about every potential allocation. The
// mediator allocates each query q to q.N of the providers able to perform
// it, scoring candidates by Definition 3 of the paper under the
// satisfaction-adaptive balance ω of Equation 2, after the KnBest stages
// bound the candidate set. Participants' satisfaction (Definitions 1-2) is
// computed over their k last interactions; chronically dissatisfied
// participants leave, costing the system capacity — which is exactly what
// SbQA is designed to prevent.
package sbqa

import (
	"time"

	"sbqa/internal/alloc"
	"sbqa/internal/cluster"
	"sbqa/internal/core"
	"sbqa/internal/event"
	"sbqa/internal/knbest"
	"sbqa/internal/lab"
	"sbqa/internal/live"
	"sbqa/internal/mediator"
	"sbqa/internal/model"
	"sbqa/internal/persist"
	"sbqa/internal/policy"
	"sbqa/internal/qos"
	"sbqa/internal/trace"
)

// ---------------------------------------------------------------------------
// Domain model
// ---------------------------------------------------------------------------

// Core domain types (see the model package for full documentation).
type (
	// ConsumerID identifies a consumer.
	ConsumerID = model.ConsumerID
	// ProviderID identifies a provider.
	ProviderID = model.ProviderID
	// QueryID identifies a query instance.
	QueryID = model.QueryID
	// Intention is a participant's interest level in [-1, 1].
	Intention = model.Intention
	// Query is one unit of work to allocate.
	Query = model.Query
	// ProviderSnapshot is the mediator-visible provider state.
	ProviderSnapshot = model.ProviderSnapshot
	// Allocation is the outcome of mediating one query.
	Allocation = model.Allocation
)

// ---------------------------------------------------------------------------
// Allocators
// ---------------------------------------------------------------------------

// Allocation machinery.
type (
	// Allocator decides which providers perform a query
	// (Allocate(ctx, env, q, candidates)).
	Allocator = alloc.Allocator
	// Snapshots adapts an already materialised candidate set to the source
	// Allocate pulls its candidates from (tests, previews).
	Snapshots = alloc.Snapshots
	// SbQAConfig configures the satisfaction-based allocator.
	SbQAConfig = core.Config
	// KnBestParams are the two-stage selection parameters (k, kn).
	KnBestParams = knbest.Params
	// SbQA is the satisfaction-based allocator itself.
	SbQA = core.SbQA
	// StaticEnv is a deterministic table-backed environment for tests,
	// previews, and embeddings with precomputed intentions.
	StaticEnv = alloc.StaticEnv
)

// NewStaticEnv returns an empty table-backed environment ready to be
// populated (SetCI/SetPI, satisfaction and bid tables).
func NewStaticEnv() *StaticEnv { return alloc.NewStaticEnv() }

// NewSbQA builds the satisfaction-based allocator. The zero config gives the
// demo defaults: KnBest(k=20, kn=10), adaptive ω per Equation 2, ε = 1.
// It panics only on contradictory KnBest parameters (kn > k).
func NewSbQA(cfg SbQAConfig) *SbQA { return core.MustNew(cfg) }

// ---------------------------------------------------------------------------
// Mediation pipeline
// ---------------------------------------------------------------------------

// Mediation pipeline types.
type (
	// Mediator runs the technique-agnostic mediation pipeline.
	Mediator = mediator.Mediator
	// MediatorConfig tunes the pipeline (including shared Registry and
	// Directory injection for sharded embeddings).
	MediatorConfig = mediator.Config
	// Consumer is the mediator-side view of a consumer.
	Consumer = mediator.Consumer
	// Provider is the mediator-side view of a provider.
	Provider = mediator.Provider

	// ConsumerParticipant is the optional context-aware extension of
	// Consumer: the mediator gathers CI_q over the whole candidate batch
	// with a single Intentions(ctx, q, kn) call — typically a network
	// round trip — under the configured per-participant deadline, imputing
	// from registry state when the consumer stays silent.
	ConsumerParticipant = mediator.ConsumerParticipant
	// ProviderParticipant is the optional context-aware extension of
	// Provider: PI_q is gathered through IntentionContext(ctx, q),
	// concurrently with every other participant of the batch.
	ProviderParticipant = mediator.ProviderParticipant
)

// NewMediator returns a mediator running the given allocation technique.
func NewMediator(a Allocator, cfg MediatorConfig) *Mediator { return mediator.New(a, cfg) }

// ---------------------------------------------------------------------------
// Simulation world
// ---------------------------------------------------------------------------

// ProjectSpec declares one consumer project of the Volunteering preset
// (its Workload.Volunteers.Projects).
type ProjectSpec = lab.ProjectSpec

// Popularity classes for ProjectSpec.
const (
	// Popular projects are most volunteers' favourite.
	Popular = lab.Popular
	// Normal projects are liked by many volunteers, not most.
	Normal = lab.Normal
	// Unpopular projects are favoured by a small fraction.
	Unpopular = lab.Unpopular
)

// Volunteering returns the paper's BOINC world as a lab scenario: the
// demo's three projects (popular, normal, unpopular) over the given number
// of volunteers at load ρ = 0.7, captive, under SbQA. Set
// Workload.Volunteers.Autonomous to let dissatisfied participants leave,
// and Policy to pit another technique.
func Volunteering(volunteers int, duration float64, seed uint64) lab.Scenario {
	return lab.Volunteering(volunteers, duration, seed)
}

// RunScenario runs a lab scenario on the real engine under a virtual
// clock; the same scenario always yields the same report.
func RunScenario(sc lab.Scenario) (*lab.Report, error) { return lab.Run(sc) }

// ---------------------------------------------------------------------------
// Live (goroutine-based) runtime — the asynchronous Engine API
// ---------------------------------------------------------------------------

// Concurrent runtime types for real embeddings (wall-clock time, workers on
// goroutines while busy, sharded mediation engine); see the live package doc.
type (
	// Engine is the asynchronous mediation front end: Submit returns a
	// *Ticket immediately, queries mediate on their consumer's shard loop
	// in submission order, and results are collected per ticket.
	// SubmitWait, for a caller that waits for the allocation next, mediates
	// on the caller's goroutine when the shard is idle, in the same order;
	// like Submit(...).Allocation(), it must not be called from an Observer
	// callback. Build it with NewEngine and functional options.
	Engine = live.Engine
	// Ticket is the handle for one asynchronously submitted query:
	// Allocation blocks for the mediation outcome, Await/Done for the
	// per-worker results.
	Ticket = live.Ticket
	// EngineOption configures NewEngine (WithConcurrency, WithWindow, ...).
	EngineOption = live.Option
	// QueryOption configures one Engine submission (WithResults, ...).
	QueryOption = live.QueryOption
	// EngineStats is a point-in-time snapshot of the engine counters:
	// per-shard mediations/rejections/dispatch failures, mean candidate-set
	// sizes, queue depths, and participant counts.
	EngineStats = live.Stats
	// ShardStats is one mediation lane's counters within EngineStats.
	ShardStats = live.ShardStats

	// LiveWorker executes queries on a goroutine it holds only while busy.
	LiveWorker = live.Worker
	// LiveExecutor is the engine's dispatch contract; *LiveWorker (and
	// types embedding it) implement it.
	LiveExecutor = live.Executor
	// LiveResult is one completed execution.
	LiveResult = live.Result
	// LiveFuncConsumer adapts an intention function to Consumer.
	LiveFuncConsumer = live.FuncConsumer
)

// Observability: the engine's typed event stream.
type (
	// Observer receives engine lifecycle events (allocations, rejections,
	// dispatch failures, registration churn, satisfaction snapshots).
	Observer = event.Observer
	// ObserverFuncs adapts free functions to Observer; nil fields ignore
	// their event. Embed it to implement only some events, or embed one
	// Observer in a type that calls another to compose two.
	ObserverFuncs = event.Funcs
	// SatisfactionSnapshot is a periodic sample of every participant's δs.
	SatisfactionSnapshot = event.SatisfactionSnapshot
	// Imputation reports one silent participant whose intention was
	// imputed from registry state during batched collection.
	Imputation = event.Imputation
	// PeerChange reports one cluster peer's health transition
	// (alive/suspect/down) as seen by the local node.
	PeerChange = event.PeerChange
	// ShedEvent reports one query rejected by admission control (deadline
	// infeasible, class queue full, or brownout) — a shed is never silent.
	ShedEvent = event.Shed
	// PolicyChange is the typed event emitted when Engine.Reconfigure
	// accepts a new policy generation.
	PolicyChange = event.PolicyChange
)

// NewEngine builds the asynchronous sharded mediation engine:
//
//	eng, err := sbqa.NewEngine(
//		sbqa.WithWindow(100),
//		sbqa.WithConcurrency(runtime.GOMAXPROCS(0)),
//		sbqa.WithPolicy(sbqa.PolicySpec{Kind: sbqa.PolicySbQA, K: 20, Kn: 10, Seed: 1}),
//	)
//	defer eng.Close()
//	t := eng.Submit(ctx, sbqa.Query{Consumer: 0, N: 1, Work: 2})
//	alloc, err := t.Allocation()     // mediation outcome
//	results, err := t.Await(ctx)     // per-worker results
//	alloc, err = eng.SubmitWait(ctx, q).Allocation() // idle shard: mediated on this goroutine
//
// The allocation technique comes from WithPolicy: declarative, hot-swappable,
// one allocator per shard (shard i seeded Seed+i, because allocators hold
// per-shard sampling state).
func NewEngine(opts ...EngineOption) (*Engine, error) { return live.NewEngine(opts...) }

// WithWindow sets the satisfaction memory length k.
func WithWindow(k int) EngineOption { return live.WithWindow(k) }

// WithConcurrency sets the number of mediator shards; queries route to
// shards by consumer hash, so one consumer's stream stays serialized while
// distinct consumers mediate in parallel.
func WithConcurrency(n int) EngineOption { return live.WithConcurrency(n) }

// WithObserver installs the engine's typed event stream; see Observer.
func WithObserver(o Observer) EngineOption { return live.WithObserver(o) }

// WithQueueDepth bounds each shard's asynchronous submission queue
// (backpressure: full queues block Submit until the shard drains).
func WithQueueDepth(n int) EngineOption { return live.WithQueueDepth(n) }

// WithSnapshotInterval emits OnSatisfactionSnapshot to the observer every
// interval of wall-clock time.
func WithSnapshotInterval(d time.Duration) EngineOption { return live.WithSnapshotInterval(d) }

// WithResults forwards one submission's per-worker results to ch in
// addition to collecting them on the ticket. Each worker sends its own
// result before the ticket counts it, so a full ch stalls the delivering
// workers; one channel may serve every submission.
func WithResults(ch chan<- LiveResult) QueryOption { return live.WithResults(ch) }

// NewLiveWorker returns an idle worker with the given capacity (work units
// per real second) and intention function; it starts a goroutine on demand.
func NewLiveWorker(id ProviderID, capacity float64, queueCap int, intentionFn func(Query) Intention) (*LiveWorker, error) {
	return live.NewWorker(id, capacity, queueCap, intentionFn)
}

// ---------------------------------------------------------------------------
// QoS: admission control, class-aware scheduling, and load shedding
// ---------------------------------------------------------------------------

// Overload-survival types. A QoSSpec declares the engine's service classes
// (weights, optional strict priority, bounded queue depth, token-bucket
// admission rates); the shard queues become weighted-fair + earliest-
// deadline-first schedulers, infeasible or over-limit queries shed with a
// typed *ShedError and a ShedEvent instead of degrading everyone, and the
// tuner's brownout controller widens shedding under sustained pressure.
// See DESIGN.md §12.
type (
	// QoSSpec is the JSON-serializable overload policy: service classes
	// plus per-consumer admission rates. It reaches the engine as the qos
	// block of a PolicySpec, hot-swappable through Engine.Reconfigure.
	QoSSpec = qos.Spec
	// QoSLimiter is the gateway-side token-bucket admission filter
	// (per-consumer and per-class).
	QoSLimiter = qos.Limiter
	// ShedError is the typed load-shedding failure a shed ticket reports:
	// it carries the query, its class, the shed reason, and the queue state
	// that triggered it.
	ShedError = live.ShedError
)

// AsShedError unwraps err to its *ShedError, if it carries one.
func AsShedError(err error) (*ShedError, bool) { return live.AsShedError(err) }

// DefaultQoSSpec returns the three-class default: interactive (weight 8,
// strict priority), batch (weight 3), background (weight 1).
func DefaultQoSSpec() QoSSpec { return qos.DefaultSpec() }

// NewQoSLimiter builds a token-bucket admission filter from spec; now is
// the clock in seconds (pass a fake for tests). A nil limiter admits
// everything.
func NewQoSLimiter(spec QoSSpec, now func() float64) *QoSLimiter {
	return qos.NewLimiter(spec, now)
}

// WithQoSClass queues one submission under the named QoS class; unknown
// names fold into the spec's default class.
func WithQoSClass(class string) QueryOption { return live.WithQoSClass(class) }

// WithDeadline gives one submission a completion deadline relative to
// submission time; a query whose deadline cannot be met — estimated from the
// shard's service-time EWMA and current queue depth — sheds immediately
// instead of waiting to fail.
func WithDeadline(d time.Duration) QueryOption { return live.WithDeadline(d) }

// ---------------------------------------------------------------------------
// Policy control plane: declarative policies, hot reconfiguration, autotuning
// ---------------------------------------------------------------------------

// Declarative policy types. A PolicySpec names an allocation technique and
// carries every tunable the paper exposes; the engine consumes it through
// WithPolicy and hot-swaps it at mediation boundaries through
// Engine.Reconfigure. WithTuner closes the self-adaptation loop
// autonomously.
type (
	// PolicySpec is a named, JSON-serializable allocation policy:
	// allocator kind plus parameters (KnBest k/kn, ω mode, ε, seed,
	// participant deadline, qos block). Build it by hand or parse it with
	// ParsePolicy; validate with its Validate method.
	PolicySpec = policy.Spec
	// TunerConfig bounds the autonomic tuner (hysteresis, min interval,
	// hard parameter caps); its thresholds are fixed, not settable.
	TunerConfig = policy.TunerConfig
)

// Allocator kinds a PolicySpec may name (the policy package lists them all).
const (
	// PolicySbQA runs the satisfaction-based allocator (the only tunable
	// kind).
	PolicySbQA = policy.SbQA
	// PolicyCapacity runs the capacity-based baseline.
	PolicyCapacity = policy.Capacity
	// PolicyEconomic runs the Mariposa-style sealed-bid baseline.
	PolicyEconomic = policy.Economic
)

// ParsePolicy decodes a JSON policy spec, rejecting unknown fields.
func ParsePolicy(data []byte) (PolicySpec, error) { return policy.Parse(data) }

// WithPolicy supplies the engine's allocation policy — required: the spec
// builds one allocator per shard, carries the participant deadline and the
// qos block the engine boots with, and is hot-swappable afterwards via
// Engine.Reconfigure.
func WithPolicy(spec PolicySpec) EngineOption { return live.WithPolicy(spec) }

// WithTuner runs an autonomic policy tuner bound to the engine (requires
// WithSnapshotInterval): each snapshot tick steps a MAPE-K controller that
// widens kn under consumer starvation, nudges a fixed ω toward the adaptive
// rule under imbalance and browns out under queue pressure, with
// hysteresis, a minimum interval between actions, and hard bounds.
func WithTuner(cfg TunerConfig) EngineOption { return live.WithTuner(cfg) }

// ---------------------------------------------------------------------------
// Durability: snapshot + journal persistence for the adaptation state
// ---------------------------------------------------------------------------

// PersistOption tunes the durability store; PersistSyncEvery is the one
// there is.
type PersistOption = persist.Option

// WithPersistence makes the engine's adaptation state durable under dir:
// satisfaction windows, the active policy generation, allocator sampling
// streams and the query ID counter. Restore happens in NewEngine, every
// state-mutating event is journaled asynchronously, and after a graceful
// Close the next NewEngine with the same directory resumes byte-identically;
// after a crash, recovery loses at most the last unsynced journal batch.
// Participants themselves are runtime objects and must be re-registered on
// boot. See DESIGN.md §8.
func WithPersistence(dir string, opts ...PersistOption) EngineOption {
	return live.WithPersistence(dir, opts...)
}

// PersistSyncEvery sets the journal fsync cadence: one fsync per n appended
// records (1 = every record; default 64). The crash-loss bound.
func PersistSyncEvery(n int) PersistOption { return persist.SyncEvery(n) }

// ---------------------------------------------------------------------------
// Cluster: multi-node mediation with consistent-hash routing and WAL-shipped
// satisfaction replication
// ---------------------------------------------------------------------------

// Cluster types. N sbqad daemons (or embeddings) form a mediation cluster
// from a static peer list: a consistent-hash ring over consumer IDs decides
// which node owns each consumer, heartbeats track peer health and shrink
// the routing ring when a node dies, and the journal replicator ships
// sealed WAL segments to ring followers so a dead node's consumers arrive
// at their new owner with satisfaction memory intact. There is no leader
// and no consensus; see DESIGN.md §10.
type (
	// ClusterPeer identifies one cluster member (node ID + base URL).
	ClusterPeer = cluster.Peer
	// ClusterConfig assembles a cluster node (self, peers, heartbeat and
	// replication cadence, durability hookup).
	ClusterConfig = cluster.Config
	// ClusterNode is one member's view of the cluster: rings, peer
	// health, replication, failover replay.
	ClusterNode = cluster.Node
	// ClusterRing is the immutable consistent-hash ring itself.
	ClusterRing = cluster.Ring
	// ClusterFrame is one frame of a peer link: a forwarded request (the
	// client's own bytes plus trace context and remaining budget) or the
	// owner's reply to one (status, Retry-After, response bytes).
	ClusterFrame = cluster.Frame
	// ClusterFrameKind tells a link's request frames apart.
	ClusterFrameKind = cluster.FrameKind
)

// Intra-cluster contract: the path a clustered daemon mounts, the
// loop-prevention header, and what a peer link's request frame can be.
const (
	// ClusterForwardPath is where a peer opens its link (an HTTP Upgrade);
	// forwarded query submissions and consumer registrations, heartbeats
	// and WAL segments then travel as frames on it.
	ClusterForwardPath = cluster.ForwardPath
	// ClusterForwardedFromHeader carries the sender's node ID on a link's
	// upgrade request and a proxied SSE subscription: one hop only, a
	// receiver that still disagrees about ownership answers a typed error
	// instead of re-forwarding.
	ClusterForwardedFromHeader = cluster.ForwardedFromHeader
	// ClusterFrameQuery and ClusterFrameConsumer are the two request kinds:
	// the body of a POST /v1/queries and of a POST /v1/consumers.
	ClusterFrameQuery    = cluster.FrameQuery
	ClusterFrameConsumer = cluster.FrameConsumer
	// ClusterMaxFrameBody bounds a frame's body, and so a request body.
	ClusterMaxFrameBody = cluster.MaxFrameBody
)

// NewClusterNode validates cfg and builds an inert cluster node; call its
// Start to launch the heartbeat and replication loops and Close to stop
// them. A node with no peers is valid and routes everything locally.
func NewClusterNode(cfg ClusterConfig) (*ClusterNode, error) { return cluster.New(cfg) }

// NewClusterRing builds a standalone consistent-hash ring (vnodes virtual
// points per node; <= 0 selects the default). Ownership is stable across
// processes, Go versions, and node-list orderings.
func NewClusterRing(nodes []string, vnodes int) *ClusterRing { return cluster.NewRing(nodes, vnodes) }

// ---------------------------------------------------------------------------
// Tracing and explainability: per-query spans, explain records, the flight
// recorder (DESIGN.md §13)
// ---------------------------------------------------------------------------

type (
	// TraceContext is the per-query trace stamp: identity, parent span, and
	// the sampling decision every instrumentation site gates on.
	TraceContext = model.TraceContext
	// TraceRecorder owns sampling, active traces, the flight-recorder ring,
	// and the per-stage latency histograms; see Engine.Tracer.
	TraceRecorder = trace.Recorder
	// TraceSpan is one timed pipeline stage of a trace.
	TraceSpan = trace.Span
	// TraceView is an independent copy of one trace, safe to hold after the
	// underlying pooled record is recycled.
	TraceView = trace.TraceView
)

// The pipeline stages a gateway records itself (the engine records the rest;
// the trace package names them all).
const (
	StageAdmission = trace.StageAdmission
	StageForward   = trace.StageForward
)

// TraceparentHeader is the W3C propagation header name used on cluster
// forwards and participant webhooks.
const TraceparentHeader = trace.Header

// TraceparentKey is TraceparentHeader as net/http stores an incoming key:
// indexing a request's header with it skips Header.Get's canonicalising.
const TraceparentKey = "Traceparent"

// WithTracing enables the engine's mediation tracer: sampled queries record
// one span per pipeline stage plus an allocation explain record into a
// bounded in-memory ring readable through Engine.Tracer (and the daemon's
// /v1/queries/{id}/trace and /v1/debug endpoints). sample is the traced
// fraction (deterministic 1-in-N; 1 traces everything, <=0 disables);
// buffer is the ring capacity in finished traces (<=0 means 256). Unsampled
// queries pay one predictable branch per site and zero allocations.
func WithTracing(sample float64, buffer int) EngineOption {
	return live.WithTracing(sample, buffer)
}

// ParseTraceparent decodes a W3C traceparent header; ok is false for
// unknown versions, malformed fields, and the all-zero trace ID.
func ParseTraceparent(s string) (TraceContext, bool) { return trace.Parse(s) }

// FormatTraceparent renders a trace context in W3C traceparent form.
func FormatTraceparent(tc TraceContext) string { return trace.Format(tc) }

// TraceNow returns nanoseconds on the process-local monotonic clock all
// spans share.
func TraceNow() int64 { return trace.Now() }

// TraceStageBuckets returns the stage histograms' explicit upper bounds in
// seconds (the `le` labels of sbqa_stage_seconds).
func TraceStageBuckets() []float64 { return trace.StageBuckets[:] }
