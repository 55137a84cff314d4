package live

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sbqa/internal/directory"
	"sbqa/internal/event"
	"sbqa/internal/mediator"
	"sbqa/internal/model"
	"sbqa/internal/persist"
	"sbqa/internal/policy"
	"sbqa/internal/qos"
	"sbqa/internal/satisfaction"
	"sbqa/internal/trace"
)

// config collects what the functional options of one NewEngine call set;
// each field is documented on the With* option that writes it.
type config struct {
	window           int
	analyzeBest      bool
	concurrency      int
	policy           *policy.Spec
	tuner            *policy.TunerConfig
	observer         event.Observer
	queueDepth       int
	snapshotInterval time.Duration
	nowFn            func() float64
	persistDir       string
	persistOpts      []persist.Option
	trace            *trace.Config
}

// shard is one mediation lane: a single-threaded mediator behind its own
// mutex, the class-aware queue its loop drains, and that lane's monotonic
// counters. The pointer indirection keeps each shard's hot mutex on its own
// cache line region.
type shard struct {
	mu    sync.Mutex
	med   *mediator.Mediator
	sched *qos.Scheduler[engineItem]

	// Policy generations (see policy.go): nextGen is the latest published
	// generation, loaded at every mediation boundary; curGen (guarded by
	// mu) is the one this shard is running; appliedGen mirrors curGen for
	// lock-free Stats reads.
	nextGen    atomic.Pointer[generation]
	curGen     uint64
	appliedGen atomic.Uint64

	// Lifetime counters (see ShardStats).
	mediations        atomic.Uint64
	rejections        atomic.Uint64
	dispatchFailures  atomic.Uint64
	candidateSum      atomic.Uint64
	imputations       atomic.Uint64
	intentionTimeouts atomic.Uint64
	policySwaps       atomic.Uint64
}

// shardObserver is the head of the chain each shard's mediator emits into:
// it maintains the shard's counters on every mediation outcome and passes
// the event on to the engine's observer chain, which it embeds.
type shardObserver struct {
	event.Observer
	sh *shard
}

func (o shardObserver) OnAllocation(a *model.Allocation, candidates int) {
	o.sh.mediations.Add(1)
	o.sh.candidateSum.Add(uint64(candidates))
	o.Observer.OnAllocation(a, candidates)
}

func (o shardObserver) OnRejection(q model.Query, reason error) {
	o.sh.rejections.Add(1)
	o.Observer.OnRejection(q, reason)
}

func (o shardObserver) OnIntentionImputed(im event.Imputation) {
	o.sh.imputations.Add(1)
	if im.Timeout() {
		o.sh.intentionTimeouts.Add(1)
	}
	o.Observer.OnIntentionImputed(im)
}

// Engine is the sharded mediation service: Submit returns a *Ticket
// immediately and the query is mediated and dispatched by the consumer's
// shard loop in the background, preserving per-consumer submission order
// (one consumer's tickets mediate in the order they were submitted;
// distinct consumers run in parallel). SubmitWait is the entry for a caller
// about to wait for the allocation: on an idle shard the caller's goroutine
// runs the shard loop's body itself, in the same order. See the package
// documentation for the architecture.
type Engine struct {
	dir    *directory.Directory
	reg    *satisfaction.Registry
	shards []*shard
	obs    event.Observer // the journal recorder, if any, then the user observer
	pol    policyState    // declarative policy control plane (policy.go)
	nextID atomic.Int64
	nowFn  func() float64

	// boot is the WithPolicy spec, normalized: the base a later spec falls
	// back to for what it leaves empty (see adopt). Written once, before any
	// traffic.
	boot policy.Spec

	tracer *trace.Recorder    // nil unless built WithTracing
	tuner  *policy.Tuner      // nil unless built WithTuner
	pst    *enginePersistence // nil unless built WithPersistence

	mu     sync.RWMutex // guards closed for Close idempotence
	closed bool

	// guard, when set (SetSubmitGuard), vets every submission before it
	// reaches a shard queue — the cluster layer's ownership check.
	guard atomic.Pointer[func(model.Query) error]

	stopSnap chan struct{}
	snapWG   sync.WaitGroup // the snapshot loop, which steps the tuner
	wg       sync.WaitGroup
}

// NewEngine builds an engine from functional options:
//
//	eng, err := live.NewEngine(
//		live.WithWindow(100),
//		live.WithConcurrency(runtime.GOMAXPROCS(0)),
//		live.WithPolicy(policy.Spec{Kind: policy.SbQA, K: 20, Kn: 10}),
//	)
//	defer eng.Close()
//
// Nonsensical option inputs — negative concurrency, queue depth, window or
// snapshot interval, no policy or an invalid one — are rejected with a
// descriptive error rather than silently clamped.
func NewEngine(opts ...Option) (*Engine, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	if err := validateOptions(cfg); err != nil {
		return nil, err
	}
	// The observer chain: the user observer (event.Discard without
	// WithObserver), fronted by the durability recorder, which journals
	// what it must and passes every event on. The recorder joins before the
	// shards capture the chain, so every shard's events reach the journal.
	// The store is opened here; restore waits until the registry exists.
	obs := event.Discard
	if cfg.observer != nil {
		obs = cfg.observer
	}
	var pst *enginePersistence
	if cfg.persistDir != "" {
		var err error
		pst, err = openPersistence(cfg.persistDir, cfg.persistOpts)
		if err != nil {
			return nil, err
		}
		pst.rec = pst.store.NewRecorder(obs)
		obs = pst.rec
	}
	// fail releases the store on the construction errors past this point.
	fail := func(err error) (*Engine, error) {
		if pst != nil {
			pst.rec.Close()
			pst.store.Close()
		}
		return nil, err
	}

	e := &Engine{
		dir:      directory.New(),
		reg:      satisfaction.NewRegistry(cfg.window),
		shards:   make([]*shard, max(cfg.concurrency, 1)),
		obs:      obs,
		nowFn:    cfg.nowFn,
		pst:      pst,
		stopSnap: make(chan struct{}),
	}
	if cfg.tuner != nil {
		e.tuner = policy.NewTuner(e, *cfg.tuner)
	}
	if e.nowFn == nil {
		start := time.Now()
		e.nowFn = func() float64 { return time.Since(start).Seconds() }
	}
	e.dir.SetObserver(obs)
	if cfg.trace != nil {
		e.tracer = trace.New(*cfg.trace)
	}
	depth := cfg.queueDepth
	if depth < 1 {
		depth = 1024
	}
	for i := range e.shards {
		// Allocator, deadline and class table arrive with the policy (adopt).
		sh := &shard{sched: qos.NewScheduler[engineItem](qos.Spec{}, depth, e.nowFn)}
		sh.med = mediator.New(nil, mediator.Config{
			Window:      cfg.window,
			AnalyzeBest: cfg.analyzeBest,
			Observer:    shardObserver{Observer: obs, sh: sh},
			Registry:    e.reg,
			Directory:   e.dir,
			Tracer:      e.tracer,
		})
		e.shards[i] = sh
	}
	// The boot spec is generation 0 and, from here on, the base of every
	// later one; adopt reads a zero e.boot while it is the boot spec itself
	// being adopted, which falls back to nothing.
	if err := e.adopt(*cfg.policy, 0, nil); err != nil {
		return fail(err)
	}
	e.boot = e.Policy()
	if pst != nil {
		if err := pst.restore(e); err != nil {
			return fail(err)
		}
		pst.rec.SetPolicySource(e.policySource)
		// The recorder joined the observer chain before the shards were
		// built; its writer starts only now that the store has restored
		// and is open for appends.
		pst.rec.Start()
	}

	for _, sh := range e.shards {
		// No shard loop runs yet: the generation in force — boot or restored
		// — is installed directly and is not counted as a swap.
		sh.install(sh.nextGen.Load())
		e.wg.Add(1)
		go e.shardLoop(sh)
	}
	if cfg.snapshotInterval > 0 && (cfg.observer != nil || e.tuner != nil) {
		e.snapWG.Add(1)
		go e.snapshotLoop(cfg.snapshotInterval)
	}
	if pst != nil {
		pcfg := persist.Config{}
		for _, o := range cfg.persistOpts {
			o(&pcfg)
		}
		interval := pcfg.CompactInterval
		if interval <= 0 {
			interval = persist.DefaultCompactInterval
		}
		threshold := pcfg.CompactAfterSegments
		if threshold < 1 {
			threshold = persist.DefaultCompactAfterSegments
		}
		e.wg.Add(1)
		go e.persistLoop(interval, threshold)
	}
	return e, nil
}

// validateOptions rejects option inputs that can only be mistakes. Zero
// values stay valid everywhere — they select the documented defaults.
func validateOptions(cfg config) error {
	if cfg.concurrency < 0 {
		return fmt.Errorf("live: WithConcurrency(%d): shard count cannot be negative", cfg.concurrency)
	}
	if cfg.queueDepth < 0 {
		return fmt.Errorf("live: WithQueueDepth(%d): queue depth cannot be negative", cfg.queueDepth)
	}
	if cfg.window < 0 {
		return fmt.Errorf("live: WithWindow(%d): satisfaction window cannot be negative", cfg.window)
	}
	if cfg.snapshotInterval < 0 {
		return fmt.Errorf("live: WithSnapshotInterval(%v): interval cannot be negative", cfg.snapshotInterval)
	}
	if cfg.policy == nil {
		return errors.New("live: NewEngine requires WithPolicy — the policy builds the per-shard allocators")
	}
	if cfg.tuner != nil && cfg.snapshotInterval <= 0 {
		return errors.New("live: WithTuner requires WithSnapshotInterval — satisfaction snapshots are the tuner's sensor input")
	}
	return nil
}

// Shards returns the number of mediator shards.
func (e *Engine) Shards() int { return len(e.shards) }

// Directory exposes the shared participant catalog.
func (e *Engine) Directory() *directory.Directory { return e.dir }

// Registry exposes the shared lock-striped satisfaction registry.
func (e *Engine) Registry() *satisfaction.Registry { return e.reg }

// Tracer exposes the flight recorder, or nil when the engine was built
// without WithTracing. Callers read traces and stage histograms from it;
// gateways also use it to start trace contexts before submission.
func (e *Engine) Tracer() *trace.Recorder { return e.tracer }

// Tuner returns the engine's autonomic policy tuner, or nil when the
// engine was built without WithTuner.
func (e *Engine) Tuner() *policy.Tuner { return e.tuner }

// PersistStore returns the engine's durability store — nil unless the
// engine was built WithPersistence. The cluster replicator streams sealed
// journal segments from it (SealedSegmentSeqs / OpenSealedSegment) and
// drives its shipping cadence with RotateIfDirty; everything else should
// keep treating persistence as an engine-internal concern.
func (e *Engine) PersistStore() *persist.Store {
	if e.pst == nil {
		return nil
	}
	return e.pst.store
}

// traceFinish closes a sampled query's trace with the given outcome.
// No-op for unsampled queries and untraced engines. Every completion path
// calls it before releasing the ticket's waiters, so a caller holding the
// outcome always finds the finished trace.
func (e *Engine) traceFinish(q model.Query, status string, err error, explain *model.Explain) {
	if !q.Trace.Sampled || e.tracer == nil {
		return
	}
	errStr := ""
	if err != nil {
		errStr = err.Error()
	}
	e.tracer.Finish(q.Trace.ID, status, errStr, explain)
}

// shardFor routes a consumer to its mediation shard.
func (e *Engine) shardFor(c model.ConsumerID) *shard {
	if len(e.shards) == 1 {
		return e.shards[0]
	}
	h := (uint64(int64(c)) * 0x9E3779B97F4A7C15) >> 32
	return e.shards[h%uint64(len(e.shards))]
}

// RegisterWorker attaches a worker to the mediation pipeline. Registration
// goes to the shared directory, so the worker is immediately a candidate on
// every shard.
func (e *Engine) RegisterWorker(w *Worker) { e.dir.RegisterProvider(w) }

// RegisterProvider attaches an arbitrary provider implementation. Providers
// that are not Executors participate in mediation (and satisfaction) but are
// not dispatched to — embedders deliver the allocation out of band.
func (e *Engine) RegisterProvider(p mediator.Provider) { e.dir.RegisterProvider(p) }

// UnregisterWorker detaches a worker (its satisfaction memory is dropped).
func (e *Engine) UnregisterWorker(id model.ProviderID) {
	e.dir.UnregisterProvider(id)
	e.reg.ForgetProvider(id)
}

// RegisterConsumer attaches a consumer.
func (e *Engine) RegisterConsumer(c mediator.Consumer) { e.dir.RegisterConsumer(c) }

// ProviderSatisfaction reads δs(p) from the shared striped registry.
func (e *Engine) ProviderSatisfaction(id model.ProviderID) float64 {
	return e.reg.ProviderSatisfaction(id)
}

// ConsumerSatisfaction reads δs(c) from the shared striped registry.
func (e *Engine) ConsumerSatisfaction(id model.ConsumerID) float64 {
	return e.reg.ConsumerSatisfaction(id)
}

// Mediate runs the full mediation pipeline for q on its consumer's shard —
// ID assignment, policy-generation adoption at the boundary, candidate
// discovery, intention collection, allocation, and satisfaction recording —
// synchronously on the calling goroutine, and does NOT dispatch to workers.
// It is the embedding hook for deterministic harnesses (internal/lab) that
// drive the real engine under a virtual clock (WithClock) and simulate
// execution themselves: with one shard a sequence of Mediate calls is
// byte-identical to driving a serialized mediator directly, and Reconfigure
// is adopted exactly at the next Mediate boundary.
//
// Unlike a ticket's outcome, mediation errors are returned raw
// (ErrNoCandidates, ErrStaleSelection, ...), not wrapped in dispatch
// errors, and no dispatch counters or events fire — the caller owns
// execution.
func (e *Engine) Mediate(ctx context.Context, q model.Query) (*model.Allocation, error) {
	q.ID = model.QueryID(e.nextID.Add(1))
	q.IssuedAt = e.nowFn()
	sh := e.shardFor(q.Consumer)
	sh.mu.Lock()
	sh.applyPolicy() // adopt a reconfigured policy at the mediation boundary
	a, err := sh.med.Mediate(ctx, q.IssuedAt, q)
	sh.mu.Unlock()
	return a, err
}

// process runs one ticket through its shard: under the shard lock it adopts
// any reconfigured policy (the mediation boundary), mediates the query
// exactly as Mediate does and resolves the selection's executors; outside
// the lock it hands the query to those workers and completes the ticket
// with the allocation and the dispatch error (if any) — the workers that
// accepted owe the ticket their results from then on. The submission
// context bounds the mediation itself — cancellation aborts an in-flight
// intention fan-out to context-aware participants.
func (e *Engine) process(ctx context.Context, sh *shard, t *Ticket) {
	sh.mu.Lock()
	sh.applyPolicy()
	a, err := sh.med.Mediate(ctx, t.query.IssuedAt, t.query)
	var workers []Executor
	if err == nil {
		workers = e.selectedWorkers(t.workerSlots[:0], a)
	}
	sh.mu.Unlock()
	if err != nil {
		err = dispatchErr(t.query, err)
		if errors.Is(err, ErrDispatch) {
			sh.dispatchFailures.Add(1)
			e.obs.OnDispatchFailure(t.query, nil, err)
		}
		e.failTicket(t, "rejected", err)
		return
	}
	var dStart int64
	if t.query.Trace.Sampled {
		dStart = trace.Now()
	}
	err = e.dispatch(ctx, t, workers)
	if t.query.Trace.Sampled && e.tracer != nil {
		e.tracer.RecordSpan(t.query.Trace.ID, trace.Span{
			Name:  trace.StageDispatch,
			Start: dStart,
			End:   trace.Now(),
			Extra: int64(len(workers)),
		})
	}
	if err != nil {
		sh.dispatchFailures.Add(1)
		e.obs.OnDispatchFailure(t.query, a, err)
	}
	e.traceFinish(t.query, "allocated", err, a.Explain)
	t.finish(a, err)
}

// departed stands in for a selected provider that unregistered between its
// mediation and the hand-off: it refuses the query, so dispatch reports it
// in DispatchError.Failed like any other worker that could not take it.
type departed model.ProviderID

func (d departed) ProviderID() model.ProviderID       { return model.ProviderID(d) }
func (departed) QueueDepth() int                      { return 0 }
func (departed) accept(context.Context, *Ticket) bool { return false }

// selectedWorkers appends the executors of an allocation to dst. Registered
// providers that are not Executors are left out — they are delivered to out
// of band.
func (e *Engine) selectedWorkers(dst []Executor, a *model.Allocation) []Executor {
	for _, pid := range a.Selected {
		switch p := e.dir.Provider(pid).(type) {
		case Executor:
			dst = append(dst, p)
		case nil:
			dst = append(dst, departed(pid))
		}
	}
	return dst
}

// dispatch hands the ticket's query to every selected worker. It attempts
// all workers even after one refuses, so the returned *DispatchError
// partitions the selection into the workers that accepted (and owe the
// ticket a Result, or an abandonment if they shut down first) and the ones
// that did not — the retryable remainder.
func (e *Engine) dispatch(ctx context.Context, t *Ticket, workers []Executor) error {
	t.expect(len(workers))
	var failed []model.ProviderID
	for _, w := range workers {
		if !w.accept(ctx, t) {
			failed = append(failed, w.ProviderID())
		}
	}
	if len(failed) == 0 {
		return nil
	}
	t.refused(len(failed))
	// Only a refusal needs the other side of the partition listed: the
	// selection in order, less the refusers.
	var accepted []model.ProviderID
	for _, w := range workers {
		if id := w.ProviderID(); !slices.Contains(failed, id) {
			accepted = append(accepted, id)
		}
	}
	return &DispatchError{Query: t.query, Accepted: accepted, Failed: failed, Err: ctx.Err()}
}

// ShardStats is one mediation lane's lifetime counters, plus the ledger of
// its submission queue.
type ShardStats struct {
	// Mediations counts successful mediations on this shard.
	Mediations uint64 `json:"mediations"`

	// Rejections counts failed mediations (no candidates, stale selection,
	// malformed or misaddressed queries).
	Rejections uint64 `json:"rejections"`

	// DispatchFailures counts allocations that could not be (fully)
	// delivered to their selected workers.
	DispatchFailures uint64 `json:"dispatch_failures"`

	// MeanCandidates is the mean size of the population allocators drew
	// from over this shard's successful mediations (0 when none): the
	// class's index bucket, or |P_q| where a technique materialised it —
	// the same number whenever no provider refuses.
	MeanCandidates float64 `json:"mean_candidates"`

	// Imputations counts intention-batch positions this shard filled from
	// satisfaction registry state because a context-aware participant
	// stayed silent or failed during the fan-out.
	Imputations uint64 `json:"imputations"`

	// IntentionTimeouts counts the subset of Imputations caused by a
	// participant missing the policy's participant deadline.
	IntentionTimeouts uint64 `json:"intention_timeouts"`

	// PolicyGeneration is the policy generation this shard is currently
	// running (0 = the construction-time policy); it trails
	// Stats.PolicyGeneration until the shard hits its next mediation
	// boundary.
	PolicyGeneration uint64 `json:"policy_generation"`

	// PolicySwaps counts the generations this shard has applied — each a
	// Reconfigure adopted at a mediation boundary.
	PolicySwaps uint64 `json:"policy_swaps"`

	// QueueDepth is the number of submissions waiting in this shard's
	// queue at snapshot time.
	QueueDepth int `json:"queue_depth"`

	// QueueHighWater is the deepest this shard's queue has ever been
	// (summed across QoS classes); QueueEnqueued and QueueDequeued are its
	// cumulative admission/drain counters, and QueueShed counts the queries
	// refused with a typed *ShedError (deadline infeasible, class queue
	// full, or brownout).
	QueueHighWater int    `json:"queue_high_water"`
	QueueEnqueued  uint64 `json:"queue_enqueued"`
	QueueDequeued  uint64 `json:"queue_dequeued"`
	QueueShed      uint64 `json:"queue_shed"`

	// QoS is the scheduler snapshot the Queue counters above were read from,
	// whole: the per-class ledger with sheds by reason, the service-time
	// EWMA and the brownout level. The gateway builds its per-class /metrics
	// families from it; it is not part of the JSON document.
	QoS qos.Stats `json:"-"`
}

// Stats is a point-in-time snapshot of the engine's counters: per-shard
// mediation outcomes, participant counts, and per-worker queue depths.
type Stats struct {
	// Shards holds one entry per mediation lane, in shard order.
	Shards []ShardStats `json:"shards"`

	// QueriesSubmitted is the number of query IDs assigned so far
	// (including queries whose mediation failed).
	QueriesSubmitted int64 `json:"queries_submitted"`

	// Providers and Consumers count the participants currently registered
	// in the shared directory.
	Providers int `json:"providers"`
	Consumers int `json:"consumers"`

	// WorkerQueueDepths maps every registered *Worker to the number of
	// tasks currently queued at it (including the one in service, if any).
	// Providers that are not dispatchable workers are absent.
	WorkerQueueDepths map[model.ProviderID]int `json:"worker_queue_depths"`

	// PolicyGeneration is the latest accepted policy generation (the
	// Reconfigure counter); individual shards adopt it at their next
	// mediation boundary (see ShardStats.PolicyGeneration).
	PolicyGeneration uint64 `json:"policy_generation"`

	// Persistence holds the durability counters when the engine was built
	// with WithPersistence; nil otherwise.
	Persistence *persist.Stats `json:"persistence,omitempty"`
}

// Mediations returns the total successful mediations across all shards.
func (st Stats) Mediations() uint64 {
	var n uint64
	for _, sh := range st.Shards {
		n += sh.Mediations
	}
	return n
}

// PolicySwaps returns the total policy generations applied across all
// shards (each accepted Reconfigure contributes one per shard once the
// shard reaches a mediation boundary).
func (st Stats) PolicySwaps() uint64 {
	var n uint64
	for _, sh := range st.Shards {
		n += sh.PolicySwaps
	}
	return n
}

// Stats snapshots the engine's counters, including each shard's scheduler
// ledger. Counters are read with atomic loads, not under a global lock, so
// the snapshot is internally consistent per counter but not across them —
// fine for monitoring, not for invariant checks against in-flight traffic.
func (e *Engine) Stats() Stats {
	ids := e.dir.ProviderIDs()
	st := Stats{
		Shards:            make([]ShardStats, len(e.shards)),
		QueriesSubmitted:  e.nextID.Load(),
		Providers:         e.dir.NumProviders(),
		Consumers:         e.dir.NumConsumers(),
		WorkerQueueDepths: make(map[model.ProviderID]int, len(ids)),
		PolicyGeneration:  e.pol.gen.Load(),
	}
	for i, sh := range e.shards {
		m := sh.mediations.Load()
		qs := sh.sched.Stats()
		ss := ShardStats{
			Mediations:        m,
			Rejections:        sh.rejections.Load(),
			DispatchFailures:  sh.dispatchFailures.Load(),
			Imputations:       sh.imputations.Load(),
			IntentionTimeouts: sh.intentionTimeouts.Load(),
			PolicyGeneration:  sh.appliedGen.Load(),
			PolicySwaps:       sh.policySwaps.Load(),
			QueueDepth:        qs.Depth,
			QueueHighWater:    qs.HighWater,
			QueueEnqueued:     qs.Enqueued,
			QueueDequeued:     qs.Dequeued,
			QueueShed:         qs.Shed,
			QoS:               qs,
		}
		if m > 0 {
			ss.MeanCandidates = float64(sh.candidateSum.Load()) / float64(m)
		}
		st.Shards[i] = ss
	}
	for _, id := range ids {
		if w, ok := e.dir.Provider(id).(Executor); ok {
			st.WorkerQueueDepths[id] = w.QueueDepth()
		}
	}
	if e.pst != nil {
		pstStats := e.pst.rec.Stats()
		st.Persistence = &pstStats
	}
	return st
}

// satisfactionSnapshot samples every tracked participant's δs in one walk of
// the registry.
func (e *Engine) satisfactionSnapshot() event.SatisfactionSnapshot {
	cs := e.reg.AppendConsumerReadings(nil)
	ps := e.reg.AppendProviderReadings(nil)
	snap := event.SatisfactionSnapshot{
		Time:      e.nowFn(),
		Consumers: make(map[model.ConsumerID]float64, len(cs)),
		Providers: make(map[model.ProviderID]float64, len(ps)),
	}
	for _, rd := range cs {
		snap.Consumers[rd.ID] = rd.Sat
	}
	for _, rd := range ps {
		snap.Providers[rd.ID] = rd.Sat
	}
	return snap
}

var _ mediator.Provider = (*Worker)(nil)
var _ directory.CapabilityReporter = (*Worker)(nil)
var _ Executor = (*Worker)(nil)
var _ mediator.Consumer = FuncConsumer{}
