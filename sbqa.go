// Package sbqa is a Go implementation of SbQA — the Satisfaction-based
// Query Allocation process of Quiané-Ruiz, Lamarre and Valduriez (ICDE
// 2009) — together with every substrate the paper's demonstration depends
// on: the satisfaction model, the SQLB intention-balancing score, the
// KnBest two-stage provider selection, the baseline allocation techniques
// it is compared against (capacity-based and Mariposa-style economic
// mediation), a deterministic discrete-event BOINC-like simulation world,
// a concurrent (goroutine-based) runtime for real embeddings, and the
// seven-scenario experiment harness of the demo.
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
// NewEngine): Submit returns a *Ticket immediately, and tickets carry the
// allocation and the per-worker results. For simulations, build a World
// (see NewWorld), or run the paper's scenarios directly (Scenario1 …
// Scenario7, RunAllScenarios). Two binaries sit on this package: cmd/sbqad
// serves the engine over HTTP, and cmd/sbqalab is the front door to the
// simulators (paper, play, and the workload lab's list/run/report).
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
	"io"
	"time"

	"sbqa/internal/adwords"
	"sbqa/internal/alloc"
	"sbqa/internal/boinc"
	"sbqa/internal/cluster"
	"sbqa/internal/core"
	"sbqa/internal/directory"
	"sbqa/internal/event"
	"sbqa/internal/experiments"
	"sbqa/internal/intention"
	"sbqa/internal/knbest"
	"sbqa/internal/lab"
	"sbqa/internal/live"
	"sbqa/internal/mediator"
	"sbqa/internal/metrics"
	"sbqa/internal/model"
	"sbqa/internal/persist"
	"sbqa/internal/policy"
	"sbqa/internal/qos"
	"sbqa/internal/satisfaction"
	"sbqa/internal/score"
	"sbqa/internal/stats"
	"sbqa/internal/topics"
	"sbqa/internal/trace"
	"sbqa/internal/workload"
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
	// CandidateSource is what Allocate pulls its candidates from: Len,
	// positional At (snapshot on demand, !ok when the provider refuses the
	// query) and All (the materialised P_q, ascending ID).
	CandidateSource = alloc.Source
	// Snapshots adapts an already materialised candidate set to
	// CandidateSource (tests, previews).
	Snapshots = alloc.Snapshots
	// Env is the batched, context-first mediation environment allocators
	// consult: one Intentions call per mediation collects CI_q and PI_q
	// over the whole candidate batch.
	Env = alloc.Env
	// IntentionSet is one batched intention collection's outcome: aligned
	// CI/PI vectors plus per-position imputation provenance.
	IntentionSet = alloc.IntentionSet
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
// It panics only on contradictory KnBest parameters (kn > k); use
// core-level validation via NewSbQAChecked for error returns.
func NewSbQA(cfg SbQAConfig) *SbQA { return core.MustNew(cfg) }

// NewSbQAChecked is NewSbQA returning validation errors instead of
// panicking.
func NewSbQAChecked(cfg SbQAConfig) (*SbQA, error) { return core.New(cfg) }

// FixedOmega pins the scoring balance: 0 scores purely by consumer
// intentions, 1 purely by provider intentions; pass the result in
// SbQAConfig.Omega. Leaving Omega nil selects the adaptive Equation 2.
func FixedOmega(v float64) *float64 { return core.FixedOmega(v) }

// NewCapacityAllocator returns the capacity-based baseline (the BOINC-like
// load balancer of the paper's comparisons).
func NewCapacityAllocator() Allocator { return alloc.NewCapacity() }

// NewEconomicAllocator returns the Mariposa-style sealed-bid baseline.
func NewEconomicAllocator(seed uint64) Allocator { return alloc.NewEconomic(stats.NewRNG(seed)) }

// NewRandomAllocator returns the uniform-random control.
func NewRandomAllocator(seed uint64) Allocator { return alloc.NewRandom(stats.NewRNG(seed)) }

// NewRoundRobinAllocator returns the rotating control.
func NewRoundRobinAllocator() Allocator { return alloc.NewRoundRobin() }

// NewShareBasedAllocator returns BOINC's native resource-share dispatching
// (the paper's §IV motivating example); pair it with
// WorldConfig.EnforceShares.
func NewShareBasedAllocator() Allocator { return alloc.NewShareBased() }

// ---------------------------------------------------------------------------
// Scoring and satisfaction (the paper's formulas, exposed directly)
// ---------------------------------------------------------------------------

// Omega computes the adaptive balance of Equation 2 from the consumer's and
// provider's long-run satisfactions.
func Omega(satC, satP float64) float64 { return score.Omega(satC, satP) }

// Scorer is the SQLB scoring rule (Definition 3).
type Scorer = score.Scorer

// NewScorer returns the adaptive-ω scorer with ε = 1.
func NewScorer() *Scorer { return score.NewScorer() }

// Satisfaction model types (Definitions 1-2 plus the adequation and
// allocation-satisfaction notions of the companion model).
type (
	// ConsumerTracker tracks one consumer's interaction window.
	ConsumerTracker = satisfaction.ConsumerTracker
	// ProviderTracker tracks one provider's proposal window.
	ProviderTracker = satisfaction.ProviderTracker
	// SatisfactionRegistry holds every participant's tracker.
	SatisfactionRegistry = satisfaction.Registry
)

// NewConsumerTracker returns a consumer satisfaction tracker with window k.
func NewConsumerTracker(k int) *ConsumerTracker { return satisfaction.NewConsumer(k) }

// NewProviderTracker returns a provider satisfaction tracker with window k.
func NewProviderTracker(k int) *ProviderTracker { return satisfaction.NewProvider(k) }

// NewSatisfactionRegistry returns a registry creating trackers with window
// k on demand.
func NewSatisfactionRegistry(k int) *SatisfactionRegistry { return satisfaction.NewRegistry(k) }

// Intention policies for participants.
type (
	// ConsumerPolicy computes consumer intentions.
	ConsumerPolicy = intention.ConsumerPolicy
	// ProviderPolicy computes provider intentions.
	ProviderPolicy = intention.ProviderPolicy
	// ConsumerInputs feeds a ConsumerPolicy.
	ConsumerInputs = intention.ConsumerInputs
	// ProviderInputs feeds a ProviderPolicy.
	ProviderInputs = intention.ProviderInputs
	// PreferenceProvider expresses static preferences.
	PreferenceProvider = intention.PreferenceProvider
	// LoadOnlyProvider wants queries when idle, refuses when busy.
	LoadOnlyProvider = intention.LoadOnlyProvider
	// BlendProvider trades preference for load with fixed β.
	BlendProvider = intention.BlendProvider
	// AdaptiveProvider trades preference for load by satisfaction.
	AdaptiveProvider = intention.AdaptiveProvider
	// PreferenceConsumer expresses static preferences.
	PreferenceConsumer = intention.PreferenceConsumer
	// ReputationBlendConsumer trades preference for reputation.
	ReputationBlendConsumer = intention.ReputationBlendConsumer
	// ResponseTimeConsumer cares only about expected delay.
	ResponseTimeConsumer = intention.ResponseTimeConsumer
	// AdaptiveConsumer trades preference for reputation by satisfaction.
	AdaptiveConsumer = intention.AdaptiveConsumer
)

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
	// BidderParticipant is the optional context-aware extension of
	// Provider for the economic baseline's bidding round.
	BidderParticipant = mediator.BidderParticipant
)

// Directory layer: the indexed participant catalog (candidate discovery by
// capability index instead of a full-provider scan).
type (
	// ProviderDirectory is the concurrency-safe participant catalog.
	ProviderDirectory = directory.Directory
	// CapabilityReporter is the optional provider extension declaring the
	// query classes a provider performs; implementing it gets the provider
	// indexed by class.
	CapabilityReporter = directory.CapabilityReporter
)

// NewDirectory returns an empty participant catalog. Pass it as
// MediatorConfig.Directory to share one catalog between several mediators.
func NewDirectory() *ProviderDirectory { return directory.New() }

// ErrNoCandidates is returned by Mediator.Mediate when no online provider
// can perform the query.
var ErrNoCandidates = mediator.ErrNoCandidates

// ErrStaleSelection is returned by Mediator.Mediate when capacity existed
// but every selected provider unregistered mid-mediation (a transient
// registration race on a shared directory, already retried once). Unlike
// ErrNoCandidates it is retryable; the live engine folds it into
// ErrDispatch.
var ErrStaleSelection = mediator.ErrStaleSelection

// NewMediator returns a mediator running the given allocation technique.
func NewMediator(a Allocator, cfg MediatorConfig) *Mediator { return mediator.New(a, cfg) }

// ---------------------------------------------------------------------------
// Simulation world & experiments
// ---------------------------------------------------------------------------

// Simulation and experiment types.
type (
	// World is the BOINC-like simulated system.
	World = boinc.World
	// WorldConfig assembles a world.
	WorldConfig = boinc.Config
	// WorldMode selects captive vs autonomous participants.
	WorldMode = boinc.Mode
	// WorkloadConfig describes the synthetic population.
	WorkloadConfig = workload.Config
	// ProjectSpec declares one consumer project.
	ProjectSpec = workload.ProjectSpec
	// Popularity classifies how liked a project is.
	Popularity = workload.Popularity
	// RunResult condenses one run into the experiment-table row.
	RunResult = metrics.Result
	// ResultTable is an aligned text table of results.
	ResultTable = metrics.Table
	// ExperimentOptions sizes a scenario run.
	ExperimentOptions = experiments.Options
	// ScenarioResult is one regenerated scenario.
	ScenarioResult = experiments.ScenarioResult
)

// World modes.
const (
	// Captive participants never leave (Scenarios 1, 3, 5, 6).
	Captive = boinc.Captive
	// Autonomous participants leave when chronically dissatisfied
	// (Scenarios 2, 4, 7).
	Autonomous = boinc.Autonomous
)

// Popularity classes for ProjectSpec.
const (
	// Popular projects are most volunteers' favourite.
	Popular = workload.Popular
	// Normal projects are liked by many volunteers, not most.
	Normal = workload.Normal
	// Unpopular projects are favoured by a small fraction.
	Unpopular = workload.Unpopular
)

// NewWorld builds a runnable simulation; see WorldConfig and
// DefaultWorldConfig.
func NewWorld(a Allocator, cfg WorldConfig) (*World, error) { return boinc.NewWorld(a, cfg) }

// DefaultWorldConfig returns the demo population (three projects with
// popular/normal/unpopular skew) at the given scale.
func DefaultWorldConfig(volunteers int, seed uint64) WorldConfig {
	return boinc.DefaultConfig(volunteers, seed)
}

// The seven demo scenarios. Each regenerates its paper table(s); see
// EXPERIMENTS.md for recorded outputs and expected shapes.
var (
	// Scenario1 compares the baselines under the satisfaction model
	// (captive).
	Scenario1 = experiments.Scenario1
	// Scenario2 runs the baselines under autonomy and predicts departures.
	Scenario2 = experiments.Scenario2
	// Scenario3 compares SbQA with the baselines (captive).
	Scenario3 = experiments.Scenario3
	// Scenario4 compares SbQA with the baselines (autonomous).
	Scenario4 = experiments.Scenario4
	// Scenario5 flips intentions to performance-only.
	Scenario5 = experiments.Scenario5
	// Scenario6 sweeps kn and ω.
	Scenario6 = experiments.Scenario6
	// Scenario7 plants probe participants with explicit objectives.
	Scenario7 = experiments.Scenario7
	// MotivatingExample reproduces the paper's §IV resource-share
	// rigidity story (80/20 devotion, ca stops, cb bursts).
	MotivatingExample = experiments.MotivatingExample
	// MaliciousStudy exercises the replication/validation substrate with
	// malicious volunteers and reputation-driven intentions.
	MaliciousStudy = experiments.MaliciousStudy
	// ReplicationStudy compares fixed and satisfaction-adaptive query
	// replication (the SbQR-style extension).
	ReplicationStudy = experiments.ReplicationStudy
	// AdWordsStudy reproduces the §I keyword-advertising motivation with
	// dynamic campaign-driven intentions.
	AdWordsStudy = experiments.AdWordsStudy
)

// ---------------------------------------------------------------------------
// Live (goroutine-based) runtime — the asynchronous Engine API
// ---------------------------------------------------------------------------

// Concurrent runtime types for real embeddings (wall-clock time, goroutine
// workers, sharded mediation engine); see the live package documentation.
type (
	// Engine is the asynchronous mediation front end: Submit returns a
	// *Ticket immediately, queries mediate on their consumer's shard loop
	// in submission order, and results are collected per ticket. Build it
	// with NewEngine and functional options.
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
	// DispatchError is the typed dispatch failure: it matches ErrDispatch
	// with errors.Is and partitions the selection into the workers that
	// accepted the query (their results still arrive) and the undelivered
	// remainder a retry should target.
	DispatchError = live.DispatchError

	// LiveWorker executes queries on its own goroutine.
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
	// Embed NopObserver to implement a subset.
	Observer = event.Observer
	// NopObserver ignores every event; embed it for forward compatibility.
	NopObserver = event.Nop
	// ObserverFuncs adapts free functions to Observer; nil fields ignore
	// their event.
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
)

// MultiObserver fans events out to several observers in order.
func MultiObserver(obs ...Observer) Observer { return event.Multi(obs...) }

// ErrDispatch reports that an allocation succeeded but the query could not
// be fully delivered: a selected worker shut down mid-flight, its queue was
// full, or the whole selection unregistered before hand-off
// (ErrStaleSelection, which it then wraps; a done context is wrapped too).
// Transient and retryable, unlike ErrNoCandidates. Every dispatch failure
// is a *DispatchError, which names the workers that accepted (and keep the
// query) vs failed, so retries can target only the undelivered remainder.
var ErrDispatch = live.ErrDispatch

// ErrEngineClosed is reported by tickets submitted after Engine.Close.
var ErrEngineClosed = live.ErrEngineClosed

// AsDispatchError unwraps err to its *DispatchError, if it carries one.
func AsDispatchError(err error) (*DispatchError, bool) { return live.AsDispatchError(err) }

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
	// plus per-consumer admission rates. Embed it in a PolicySpec's qos
	// block to hot-swap it through Reconfigure.
	QoSSpec = qos.Spec
	// QoSClassSpec declares one service class (name, weight, priority,
	// max queue depth, class-wide admission rate/burst).
	QoSClassSpec = qos.ClassSpec
	// QoSStats is one shard scheduler's point-in-time ledger: per-class
	// depths, high-water marks, cumulative enqueued/dequeued/shed.
	QoSStats = qos.Stats
	// QoSClassStats is one class's slice of QoSStats.
	QoSClassStats = qos.ClassStats
	// QoSPressure is the aggregated overload signal the brownout
	// controller consumes (cumulative enqueued/shed, queue-wait p99).
	QoSPressure = qos.Pressure
	// QoSLimiter is the gateway-side token-bucket admission filter
	// (per-consumer and per-class).
	QoSLimiter = qos.Limiter
	// QoSDecision is one admission verdict, carrying the retry-after
	// hint for rejected submissions.
	QoSDecision = qos.Decision
	// ShedError is the typed load-shedding failure a shed ticket reports:
	// it matches ErrShed with errors.Is and carries the query, its class,
	// the shed reason, and the queue state that triggered it.
	ShedError = live.ShedError
)

// The built-in QoS class names (any spec may declare others).
const (
	// QoSInteractive is the latency-sensitive top class.
	QoSInteractive = qos.Interactive
	// QoSBatch is the throughput class.
	QoSBatch = qos.Batch
	// QoSBackground is the first class shed under pressure.
	QoSBackground = qos.Background
)

// Shed reasons carried by ShedError and ShedEvent.
const (
	// ShedDeadline: the deadline cannot be met at current queue depth.
	ShedDeadline = qos.ReasonDeadline
	// ShedQueueFull: the class queue is at its configured bound.
	ShedQueueFull = qos.ReasonQueueFull
	// ShedBrownout: the brownout level currently sheds this class.
	ShedBrownout = qos.ReasonBrownout
	// ShedRateLimit: a gateway token bucket rejected the submission.
	ShedRateLimit = qos.ReasonRateLimit
)

// ErrShed reports a query rejected by admission control rather than
// mediated (match with errors.Is; unwrap details with AsShedError).
var ErrShed = live.ErrShed

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

// WithQoS installs the engine's overload-survival configuration: class-aware
// shard scheduling (weighted fair with strict-priority classes, EDF within a
// class) and load shedding with typed errors and events. Takes precedence
// over the construction policy's qos block.
func WithQoS(spec QoSSpec) EngineOption { return live.WithQoS(spec) }

// WithQoSClass queues one submission under the named QoS class; unknown
// names fold into the spec's default class.
func WithQoSClass(class string) QueryOption { return live.WithQoSClass(class) }

// WithDeadline gives one submission a completion deadline relative to
// submission time; a query whose deadline cannot be met — estimated from the
// shard's service-time EWMA and current queue depth — sheds immediately
// instead of waiting to fail.
func WithDeadline(d time.Duration) QueryOption { return live.WithDeadline(d) }

// NewEngine builds the asynchronous sharded mediation engine:
//
//	eng, err := sbqa.NewEngine(
//		sbqa.WithWindow(100),
//		sbqa.WithConcurrency(runtime.GOMAXPROCS(0)),
//		sbqa.WithAllocatorFactory(func(shard int) sbqa.Allocator {
//			return sbqa.NewSbQA(sbqa.SbQAConfig{Seed: uint64(shard) + 1})
//		}),
//	)
//	defer eng.Close()
//	t := eng.Submit(ctx, sbqa.Query{Consumer: 0, N: 1, Work: 2})
//	alloc, err := t.Allocation()     // mediation outcome
//	results, err := t.Await(ctx)     // per-worker results
//
// With one shard an allocator suffices (WithAllocator); with several, a
// factory is required because allocators hold per-shard sampling state.
func NewEngine(opts ...EngineOption) (*Engine, error) { return live.NewEngine(opts...) }

// WithWindow sets the satisfaction memory length k.
func WithWindow(k int) EngineOption { return live.WithWindow(k) }

// WithConcurrency sets the number of mediator shards; queries route to
// shards by consumer hash, so one consumer's stream stays serialized while
// distinct consumers mediate in parallel.
func WithConcurrency(n int) EngineOption { return live.WithConcurrency(n) }

// WithAllocator sets the allocation technique of a single-shard engine.
func WithAllocator(a Allocator) EngineOption { return live.WithAllocator(a) }

// WithAllocatorFactory supplies one (seeded) allocator per shard; required
// when the concurrency is above 1.
func WithAllocatorFactory(f func(shard int) Allocator) EngineOption {
	return live.WithAllocatorFactory(f)
}

// WithAnalyzeBest measures allocation satisfaction against the whole
// candidate set (the true optimum) at O(|P_q|) intention calls per query.
func WithAnalyzeBest(on bool) EngineOption { return live.WithAnalyzeBest(on) }

// WithClock injects the engine clock (seconds on the mediation time axis);
// deterministic embeddings pass a fake clock.
func WithClock(now func() float64) EngineOption { return live.WithClock(now) }

// WithObserver installs the engine's typed event stream; see Observer.
func WithObserver(o Observer) EngineOption { return live.WithObserver(o) }

// WithQueueDepth bounds each shard's asynchronous submission queue
// (backpressure: full queues block Submit until the shard drains).
func WithQueueDepth(n int) EngineOption { return live.WithQueueDepth(n) }

// WithSnapshotInterval emits OnSatisfactionSnapshot to the observer every
// interval of wall-clock time.
func WithSnapshotInterval(d time.Duration) EngineOption { return live.WithSnapshotInterval(d) }

// WithParticipantDeadline bounds each context-aware participant call during
// batched intention collection; a participant that misses it is imputed
// from registry state instead of stalling the mediation.
func WithParticipantDeadline(d time.Duration) EngineOption {
	return live.WithParticipantDeadline(d)
}

// WithResults forwards one submission's per-worker results to ch in
// addition to collecting them on the ticket. Each worker sends its own
// result before the ticket counts it, so a full ch stalls the delivering
// workers; one channel may serve every submission.
func WithResults(ch chan<- LiveResult) QueryOption { return live.WithResults(ch) }

// FireAndForget disables a ticket's result collection: workers still
// forward to the WithResults channel (if any), nothing is retained, and the
// ticket is done at hand-off.
func FireAndForget() QueryOption { return live.FireAndForget() }

// NewLiveWorker starts a worker goroutine with the given capacity (work
// units per real second) and intention function.
func NewLiveWorker(id ProviderID, capacity float64, queueCap int, intentionFn func(Query) Intention) (*LiveWorker, error) {
	return live.NewWorker(id, capacity, queueCap, intentionFn)
}

// ---------------------------------------------------------------------------
// Policy control plane: declarative policies, hot reconfiguration, autotuning
// ---------------------------------------------------------------------------

// Declarative policy types. A PolicySpec names an allocation technique and
// carries every tunable the paper exposes; the engine consumes it through
// WithPolicy and hot-swaps it at mediation boundaries through
// Engine.Reconfigure. The Tuner closes the self-adaptation loop
// autonomously (see WithTuner).
type (
	// PolicySpec is a named, JSON-serializable allocation policy:
	// allocator kind plus parameters (KnBest k/kn, ω mode, ε, seed,
	// participant deadline). Build it by hand or parse it with
	// ParsePolicy; validate with its Validate method.
	PolicySpec = policy.Spec
	// PolicyKind names an allocation technique in a PolicySpec.
	PolicyKind = policy.Kind
	// PolicyOmegaMode selects fixed vs satisfaction-adaptive ω.
	PolicyOmegaMode = policy.OmegaMode
	// PolicyDuration is a time.Duration that marshals as "250ms"-style
	// strings in policy JSON.
	PolicyDuration = policy.Duration
	// PolicyChange is the typed event emitted when Reconfigure accepts a
	// new policy generation.
	PolicyChange = event.PolicyChange
	// Tuner is the autonomic policy controller: a MAPE-K loop from the
	// satisfaction snapshot stream back into bounded Reconfigure steps.
	Tuner = policy.Tuner
	// TunerConfig bounds the tuner (thresholds, hysteresis, min interval,
	// hard parameter caps).
	TunerConfig = policy.TunerConfig
	// TunerStats snapshots the tuner's counters.
	TunerStats = policy.TunerStats
	// Reconfigurer is the control surface a Tuner drives; *Engine
	// implements it.
	Reconfigurer = policy.Reconfigurer
)

// The allocator kinds every PolicySpec may name.
const (
	// PolicySbQA runs the satisfaction-based allocator (the only tunable
	// kind).
	PolicySbQA = policy.SbQA
	// PolicyCapacity runs the capacity-based baseline.
	PolicyCapacity = policy.Capacity
	// PolicyEconomic runs the Mariposa-style sealed-bid baseline.
	PolicyEconomic = policy.Economic
	// PolicyRandom runs the uniform-random control.
	PolicyRandom = policy.Random
	// PolicyRoundRobin runs the rotating control.
	PolicyRoundRobin = policy.RoundRobin
	// PolicyShareBased runs BOINC-native resource-share dispatching.
	PolicyShareBased = policy.ShareBased
)

// Omega modes for PolicySpec.OmegaMode.
const (
	// PolicyOmegaAdaptive selects the satisfaction-adaptive Equation 2.
	PolicyOmegaAdaptive = policy.OmegaAdaptive
	// PolicyOmegaFixed pins ω to PolicySpec.Omega.
	PolicyOmegaFixed = policy.OmegaFixed
)

// DefaultPolicy returns the demo default policy: SbQA with KnBest(20, 10),
// adaptive ω, ε = 1, seed 1.
func DefaultPolicy() PolicySpec { return policy.DefaultSpec() }

// ParsePolicy decodes a JSON policy spec, rejecting unknown fields.
func ParsePolicy(data []byte) (PolicySpec, error) { return policy.Parse(data) }

// PolicyKinds lists every registered allocator kind.
func PolicyKinds() []PolicyKind { return policy.Kinds() }

// WithPolicy supplies the engine's allocation policy declaratively; the
// spec builds one allocator per shard and is hot-swappable afterwards via
// Engine.Reconfigure. Mutually exclusive with WithAllocator and
// WithAllocatorFactory.
func WithPolicy(spec PolicySpec) EngineOption { return live.WithPolicy(spec) }

// WithTuner runs an autonomic policy tuner bound to the engine (requires
// WithPolicy and WithSnapshotInterval): satisfaction snapshots feed a
// MAPE-K loop that widens kn under consumer starvation and nudges a fixed ω
// toward the adaptive rule under consumer/provider imbalance, under
// hysteresis, a minimum interval between actions, and hard bounds.
func WithTuner(cfg TunerConfig) EngineOption { return live.WithTuner(cfg) }

// NewTuner returns a standalone autonomic tuner driving target (any
// Reconfigurer — typically an *Engine). Feed it satisfaction snapshots via
// its Observer (install with WithObserver/MultiObserver) or Observe, Start
// it, and Close it on shutdown. Engines built with WithTuner do this wiring
// themselves.
func NewTuner(target Reconfigurer, cfg TunerConfig) *Tuner { return policy.NewTuner(target, cfg) }

// ---------------------------------------------------------------------------
// Durability: snapshot + journal persistence for the adaptation state
// ---------------------------------------------------------------------------

// Durable adaptation state types. WithPersistence makes everything SbQA has
// learned — satisfaction windows, the active policy generation, allocator
// sampling streams, the query ID counter — survive restarts: restore happens
// in NewEngine, every state-mutating event is journaled asynchronously, and
// Close flushes a final snapshot so a graceful restart resumes with
// byte-identical allocations.
type (
	// PersistOption tunes the durability store (sync cadence, segment
	// size, queue depth, compaction).
	PersistOption = persist.Option
	// PersistenceStats is the durability counter block of EngineStats
	// (EngineStats.Persistence; nil without WithPersistence).
	PersistenceStats = persist.Stats
	// RestoreStats describes what a boot-time restore recovered.
	RestoreStats = persist.RestoreStats
)

// ErrPersistCorrupt marks snapshot or journal data whose framing or
// checksum does not hold (match with errors.Is).
var ErrPersistCorrupt = persist.ErrCorrupt

// WithPersistence makes the engine's adaptation state durable under dir.
// After a graceful Close the next NewEngine with the same directory resumes
// byte-identically (satisfaction memory, policy generation, sampling
// streams, query IDs); after a crash, recovery loses at most the last
// unsynced journal batch. Participants themselves are runtime objects and
// must be re-registered on boot. See DESIGN.md §8.
func WithPersistence(dir string, opts ...PersistOption) EngineOption {
	return live.WithPersistence(dir, opts...)
}

// PersistSyncEvery sets the journal fsync cadence: one fsync per n appended
// records (1 = every record; default 64). The crash-loss bound.
func PersistSyncEvery(n int) PersistOption { return persist.SyncEvery(n) }

// PersistSegmentBytes sets the journal segment rotation threshold (default
// 4 MiB).
func PersistSegmentBytes(n int64) PersistOption { return persist.SegmentBytes(n) }

// PersistQueueDepth bounds the asynchronous recorder queue (default 4096);
// overload drops events (counted in PersistenceStats.RecordsDropped) rather
// than blocking a mediation.
func PersistQueueDepth(n int) PersistOption { return persist.QueueDepth(n) }

// PersistCompactAfterSegments sets how many sealed journal segments
// accumulate before background compaction folds them into a fresh snapshot
// (default 4).
func PersistCompactAfterSegments(n int) PersistOption { return persist.CompactAfterSegments(n) }

// PersistCompactInterval sets the cadence of the background compaction
// check (default 30s).
func PersistCompactInterval(d time.Duration) PersistOption { return persist.CompactInterval(d) }

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
	// ClusterStatus is the /v1/cluster control-surface payload.
	ClusterStatus = cluster.Status
	// ClusterPeerStatus is one peer's health and replication position.
	ClusterPeerStatus = cluster.PeerStatus
	// ClusterSegmentSource is the journal slice the replicator consumes;
	// Engine.PersistStore satisfies it.
	ClusterSegmentSource = cluster.SegmentSource
)

// Intra-cluster HTTP contract: the paths a clustered daemon mounts and
// probes, and the loop-prevention header on forwarded requests.
const (
	// ClusterHealthzPath is probed by peers' heartbeats.
	ClusterHealthzPath = cluster.HealthzPath
	// ClusterSegmentsPath serves WAL replication (GET inventory, POST one
	// raw segment).
	ClusterSegmentsPath = cluster.SegmentsPath
	// ClusterForwardPath accepts query submissions forwarded from a
	// non-owner gateway; ClusterForwardConsumersPath the same for
	// consumer registration.
	ClusterForwardPath          = cluster.ForwardPath
	ClusterForwardConsumersPath = cluster.ForwardConsumersPath
	// ClusterForwardedFromHeader carries the sender's node ID on a
	// forwarded request: one hop only, a receiver that still disagrees
	// about ownership answers a typed error instead of re-forwarding.
	ClusterForwardedFromHeader = cluster.ForwardedFromHeader
)

// Typed cluster routing failures (match with errors.Is).
var (
	// ErrClusterNotOwner: the consumer belongs to another node; the
	// gateway forwards rather than serving locally.
	ErrClusterNotOwner = cluster.ErrNotOwner
	// ErrClusterPeerDown: the consumer's owner is known-dead and not yet
	// re-absorbed.
	ErrClusterPeerDown = cluster.ErrPeerDown
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
// Topic-based interests and the AdWords world (§I motivation)
// ---------------------------------------------------------------------------

// Content-based interest types: queries carry topic vectors, participants
// hold (possibly campaign-boosted) interest vectors, preference = cosine.
type (
	// TopicVector is a dense topic weight vector.
	TopicVector = topics.Vector
	// TopicInterests is a dynamic interest profile with campaigns.
	TopicInterests = topics.Interests
	// TopicCampaign is a temporary interest boost with a deadline.
	TopicCampaign = topics.Campaign
	// AdWorld is the keyword-advertising simulation world.
	AdWorld = adwords.World
	// AdWorldConfig sizes an AdWorld.
	AdWorldConfig = adwords.Config
	// Advertiser is a provider bidding for ad placements.
	Advertiser = adwords.Advertiser
)

// TopicPreference maps interest/query similarity onto an intention.
func TopicPreference(interest, query TopicVector) Intention {
	return topics.Preference(interest, query)
}

// NewTopicInterests returns a dynamic interest profile with the given base.
func NewTopicInterests(base TopicVector) *TopicInterests { return topics.NewInterests(base) }

// NewAdWorld builds a keyword-advertising world running the given
// allocation technique.
func NewAdWorld(a Allocator, cfg AdWorldConfig) (*AdWorld, error) {
	return adwords.NewWorld(a, cfg)
}

// ---------------------------------------------------------------------------
// Workload lab (deterministic traffic simulator + hypothesis harness)
// ---------------------------------------------------------------------------

// Workload-lab types: composable synthetic worlds (classes, adversaries,
// churn, flash crowds) run against the real engine under the virtual
// clock, reported deterministically (same seed ⇒ byte-identical Encode).
type (
	// LabScenario is one reproducible experiment: workload × policy ×
	// duration × seed.
	LabScenario = lab.Scenario
	// LabWorkload composes classes, adversaries, churn and flash crowds.
	LabWorkload = lab.Workload
	// LabClassSpec sizes one query class and its population.
	LabClassSpec = lab.ClassSpec
	// LabArrivalSpec declares a class's arrival process.
	LabArrivalSpec = lab.ArrivalSpec
	// LabCostSpec declares a class's query-cost distribution.
	LabCostSpec = lab.CostSpec
	// LabAdversarySpec sets the adversarial population fractions.
	LabAdversarySpec = lab.AdversarySpec
	// LabReport is the typed, deterministically serializable outcome.
	LabReport = lab.Report
	// LabHypothesis is a falsifiable claim judged from scenario reports.
	LabHypothesis = lab.Hypothesis
	// LabOutcome is a judged verdict with its quantitative detail.
	LabOutcome = lab.Outcome
	// LabScale selects full (findings) or short (CI smoke) scenario sizes.
	LabScale = lab.Scale
)

// Lab scales.
const (
	LabFull  = lab.Full
	LabShort = lab.Short
)

// RunLabScenario executes one scenario against the real mediation engine
// under the virtual clock and returns its report.
func RunLabScenario(sc LabScenario) (*LabReport, error) { return lab.Run(sc) }

// RegisterLabHypothesis adds a hypothesis to the global catalog.
func RegisterLabHypothesis(h LabHypothesis) { lab.Register(h) }

// LabHypotheses returns the registered catalog sorted by ID.
func LabHypotheses() []LabHypothesis { return lab.Registered() }

// RenderLabFindings evaluates the whole catalog at the given scale and
// renders the deterministic findings document (see hypotheses/FINDINGS.md).
func RenderLabFindings(scale LabScale) (string, error) { return lab.RenderFindings(scale) }

// RunAllScenarios executes Scenarios 1-7 in order.
func RunAllScenarios(opt ExperimentOptions) ([]*ScenarioResult, error) {
	return experiments.RunAll(opt)
}

// RenderScenarios writes every scenario's tables and notes to w.
func RenderScenarios(w io.Writer, results []*ScenarioResult) error {
	for _, r := range results {
		if err := r.Render(w); err != nil {
			return err
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Tracing and explainability: per-query spans, explain records, the flight
// recorder (DESIGN.md §13)
// ---------------------------------------------------------------------------

type (
	// TraceID is a 128-bit trace identifier (W3C trace-id).
	TraceID = model.TraceID
	// TraceContext is the per-query trace stamp: identity, parent span, and
	// the sampling decision every instrumentation site gates on.
	TraceContext = model.TraceContext
	// TraceRecorder owns sampling, active traces, the flight-recorder ring,
	// and the per-stage latency histograms; see Engine.Tracer.
	TraceRecorder = trace.Recorder
	// TraceConfig sizes a recorder (sampling rate, ring capacity, span cap).
	TraceConfig = trace.Config
	// TraceSpan is one timed pipeline stage of a trace.
	TraceSpan = trace.Span
	// TraceView is an independent copy of one trace, safe to hold after the
	// underlying pooled record is recycled.
	TraceView = trace.TraceView
	// TraceSpanView is one span of a TraceView.
	TraceSpanView = trace.SpanView
	// TraceStats is the recorder's counter block.
	TraceStats = trace.Stats
	// StageSnapshot is one pipeline stage's latency histogram in cumulative
	// Prometheus form.
	StageSnapshot = trace.StageSnapshot
	// Explain is the allocation explain record: the ranked per-provider
	// score breakdown (δs inputs, ω, intentions, imputed flags) of one
	// mediation.
	Explain = model.Explain
	// ExplainEntry is one ranked candidate row of an Explain.
	ExplainEntry = model.ExplainEntry
	// ExplainView is the wire form of an Explain.
	ExplainView = trace.ExplainView
)

// The pipeline stage names spans carry.
const (
	StageAdmission   = trace.StageAdmission
	StageQueue       = trace.StageQueue
	StageFanout      = trace.StageFanout
	StageParticipant = trace.StageParticipant
	StageImpute      = trace.StageImpute
	StageScore       = trace.StageScore
	StageDispatch    = trace.StageDispatch
	StageForward     = trace.StageForward
)

// TraceparentHeader is the W3C propagation header name used on cluster
// forwards and participant webhooks.
const TraceparentHeader = trace.Header

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
