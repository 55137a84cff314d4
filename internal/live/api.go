package live

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sbqa/internal/alloc"
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

// ErrEngineClosed is returned (via the ticket) for submissions made after
// Engine.Close.
var ErrEngineClosed = errors.New("live: engine closed")

// Option configures an Engine under construction (see NewEngine).
type Option func(*Config)

// WithWindow sets the satisfaction memory length k.
func WithWindow(k int) Option { return func(c *Config) { c.Window = k } }

// WithConcurrency sets the number of mediator shards. Values below 1 mean
// one shard. With more than one shard an allocator factory is required
// (WithAllocatorFactory); queries route to shards by a hash of their
// ConsumerID, so one consumer's stream stays serialized while distinct
// consumers mediate in parallel.
func WithConcurrency(n int) Option { return func(c *Config) { c.Concurrency = n } }

// WithAllocator sets the allocation technique of a single-shard engine.
// Ignored when an allocator factory is set.
func WithAllocator(a alloc.Allocator) Option { return func(c *Config) { c.Allocator = a } }

// WithAllocatorFactory supplies one allocator per shard. Allocators carry
// internal state (sampling RNGs, cursors) and are not safe for concurrent
// use; seed them per shard index for reproducible-yet-decorrelated
// sampling streams. Required when the concurrency is above 1 and no policy
// is set.
func WithAllocatorFactory(f func(shard int) alloc.Allocator) Option {
	return func(c *Config) { c.NewAllocator = f }
}

// WithPolicy supplies the engine's allocation policy declaratively: the
// validated spec builds one allocator per shard (spec.Build(shard), so
// per-shard sampling streams are reproducible yet decorrelated) and becomes
// the engine's generation-0 policy, visible through Engine.Policy and
// swappable at run time through Engine.Reconfigure. A spec with a positive
// ParticipantDeadline also sets the engine's participant deadline unless
// WithParticipantDeadline overrides it. Mutually exclusive with
// WithAllocator and WithAllocatorFactory.
func WithPolicy(spec policy.Spec) Option {
	return func(c *Config) { c.Policy = &spec }
}

// WithTuner runs an autonomic policy tuner bound to the engine: a
// background MAPE-K loop that watches the satisfaction snapshot stream
// (WithSnapshotInterval is therefore required, as is WithPolicy) and issues
// bounded Reconfigure steps — widening kn under consumer starvation,
// nudging a fixed ω toward the adaptive rule under consumer/provider
// imbalance — with hysteresis, a minimum interval between actions, and hard
// parameter bounds (see policy.TunerConfig). The tuner stops with
// Engine.Close; inspect it through Engine.Tuner.
func WithTuner(cfg policy.TunerConfig) Option {
	return func(c *Config) { c.Tuner = &cfg }
}

// WithAnalyzeBest evaluates the consumer's intention over the whole
// candidate set for every query, so allocation satisfaction is measured
// against the true optimum (costs O(|P_q|) intention calls per query).
func WithAnalyzeBest(on bool) Option { return func(c *Config) { c.AnalyzeBest = on } }

// WithClock overrides the engine clock: now returns the current time in
// seconds on the mediation time axis. Deterministic tests inject a fake
// clock; the default is wall-clock seconds since the engine started.
func WithClock(now func() float64) Option { return func(c *Config) { c.NowFn = now } }

// WithObserver installs the engine's event stream: allocations, rejections,
// dispatch failures, registration churn, and (with WithSnapshotInterval)
// periodic satisfaction snapshots. Callbacks run synchronously on the
// emitting goroutine — with several shards, concurrently — and must be
// fast, non-blocking, and safe for concurrent use. Use event.Multi to
// install several observers.
func WithObserver(o event.Observer) Option { return func(c *Config) { c.Observer = o } }

// WithQueueDepth bounds each shard's asynchronous submission queue (the
// ticket path). For QoS classes without an explicit MaxQueueDepth this is
// the blocking bound: submissions beyond it block in Engine.Submit until
// the shard drains or the submission context is done — backpressure.
// Classes that do declare a MaxQueueDepth shed instead of blocking (see
// WithQoS). Values below 1 mean 1024.
func WithQueueDepth(n int) Option { return func(c *Config) { c.QueueDepth = n } }

// WithQoS installs the engine's overload-survival configuration: the shard
// queues become class-aware schedulers (weighted fair across the spec's
// classes with a strict-priority option, earliest-deadline-first within a
// class) and overloaded submissions shed with a typed *ShedError and an
// event.Shed instead of blocking — deadline-infeasible queries immediately,
// classes past their MaxQueueDepth immediately, classes browned out by the
// tuner immediately. Without this option (and without a policy qos block)
// the engine keeps its historical single-FIFO backpressure semantics
// exactly. The spec is hot-swappable through Engine.Reconfigure via the
// policy's qos block.
func WithQoS(spec qos.Spec) Option { return func(c *Config) { c.QoS = &spec } }

// WithSnapshotInterval makes the engine emit OnSatisfactionSnapshot to the
// configured observer every interval of wall-clock time. Zero (the
// default) disables snapshots.
func WithSnapshotInterval(d time.Duration) Option {
	return func(c *Config) { c.SnapshotInterval = d }
}

// WithTracing enables the engine's mediation tracer: each sampled query is
// stamped with a trace context and records one span per pipeline stage
// (admission, queue wait, fan-out, per-participant intention calls,
// imputation, scoring, dispatch) plus an allocation explain record, all
// landing in a bounded in-memory ring — the flight recorder — readable
// through Engine.Tracer. sample is the fraction of queries traced
// (deterministic 1-in-N; 1.0 traces everything, <=0 disables); buffer is
// the number of finished traces retained (<=0 means the default 256).
// Unsampled queries pay one predictable branch per instrumentation site and
// zero allocations — the mediation hot path is unchanged.
func WithTracing(sample float64, buffer int) Option {
	return func(c *Config) { c.Trace = &trace.Config{Sample: sample, Buffer: buffer} }
}

// WithParticipantDeadline bounds each context-aware participant call during
// batched intention and bid collection: a participant that misses the
// deadline is abandoned and its intention imputed from its satisfaction
// registry state (counted in ShardStats.Imputations/IntentionTimeouts and
// emitted as an OnIntentionImputed event), so one slow remote participant
// can never stall a mediation. Zero (the default) means no per-participant
// bound — only the submission context limits the fan-out. In-process
// participants are unaffected.
func WithParticipantDeadline(d time.Duration) Option {
	return func(c *Config) { c.ParticipantDeadline = d }
}

// submitOptions collects per-query options.
type submitOptions struct {
	results       chan<- Result
	fireAndForget bool
	qosClass      string
	deadline      time.Duration
}

// QueryOption configures one submission (see Engine.Submit).
type QueryOption func(*submitOptions)

// WithResults forwards the query's per-worker results to ch, in addition to
// collecting them on the ticket. Forwarding happens on the ticket's
// collector goroutine; a full channel stalls that ticket's collection, not
// the engine.
func WithResults(ch chan<- Result) QueryOption {
	return func(o *submitOptions) { o.results = ch }
}

// FireAndForget disables the ticket's result collection: the ticket is done
// at worker hand-off and Results stays empty. Combined with WithResults the
// workers deliver straight to the caller's channel (the v1 contract);
// without it the results are discarded on completion.
func FireAndForget() QueryOption {
	return func(o *submitOptions) { o.fireAndForget = true }
}

// WithQoSClass queues the query under the named QoS class ("interactive",
// "batch", "background", or any class the running qos spec declares).
// Unknown names fold into the spec's default class; without a QoS spec the
// single default class applies and the option is inert. Overrides a class
// already set on the query.
func WithQoSClass(class string) QueryOption {
	return func(o *submitOptions) { o.qosClass = class }
}

// WithDeadline gives the query a start-of-mediation deadline d from
// submission time: the shard scheduler serves earlier deadlines first
// within a class and sheds the query with a typed *ShedError (reason
// "deadline") when its estimated queue wait would overrun the deadline —
// at admission, or at dequeue if the deadline expired while queued.
// Non-positive d leaves any deadline already on the query in force.
func WithDeadline(d time.Duration) QueryOption {
	return func(o *submitOptions) { o.deadline = d }
}

// Engine is the asynchronous front end of the sharded mediation service:
// Submit returns a *Ticket immediately and the query is mediated and
// dispatched by the consumer's shard loop in the background, preserving
// per-consumer submission order (one consumer's tickets mediate in the
// order they were submitted; distinct consumers run in parallel).
//
// The blocking v1 surface remains available through Service (and the
// Service accessor); both fronts drive the same shards, directory, and
// satisfaction registry and may be mixed freely — the shard mutex
// serializes them.
type Engine struct {
	svc    *Service
	scheds []*qos.Scheduler[engineItem]
	tuner  *policy.Tuner      // nil unless built WithTuner
	pst    *enginePersistence // nil unless built WithPersistence

	// baseQoS is the construction-time QoS spec (normalized); a policy
	// Reconfigure whose spec carries no qos block restores it, the same way
	// a spec with no participant deadline restores the base deadline.
	baseQoS qos.Spec

	mu     sync.RWMutex // guards closed for Close idempotence
	closed bool

	// guard, when set (SetSubmitGuard), vets every submission before it
	// reaches a shard queue — the cluster layer's ownership check.
	guard atomic.Pointer[func(model.Query) error]

	stopSnap chan struct{}
	wg       sync.WaitGroup
}

// engineItem is one unit of shard-loop work: a single ticket, or a batch
// group mediated under one lock acquisition. The scheduling attributes
// (class, deadline) are passed alongside at enqueue time — SubmitBatch
// groups by shard and class, and a group's deadline is its earliest
// member's.
type engineItem struct {
	ctx     context.Context
	tickets []*Ticket
	batch   bool
}

// NewEngine builds an asynchronous engine from functional options:
//
//	eng, err := live.NewEngine(
//		live.WithWindow(100),
//		live.WithConcurrency(runtime.GOMAXPROCS(0)),
//		live.WithAllocatorFactory(func(shard int) alloc.Allocator { ... }),
//	)
//	defer eng.Close()
//
// The zero option set is invalid (an allocator or factory is required),
// matching NewServiceWithConfig's validation. Nonsensical option inputs —
// negative concurrency, queue depth, window, snapshot interval, or
// participant deadline — are rejected with a descriptive error rather than
// silently clamped (the v1 Config surface keeps its historical clamping for
// compatibility; see NewEngineFromConfig).
func NewEngine(opts ...Option) (*Engine, error) {
	var cfg Config
	for _, o := range opts {
		o(&cfg)
	}
	if err := validateOptions(cfg); err != nil {
		return nil, err
	}
	return newEngine(cfg)
}

// validateOptions rejects option inputs that can only be mistakes. Zero
// values stay valid everywhere — they select the documented defaults.
func validateOptions(cfg Config) error {
	if cfg.Concurrency < 0 {
		return fmt.Errorf("live: WithConcurrency(%d): shard count cannot be negative", cfg.Concurrency)
	}
	if cfg.QueueDepth < 0 {
		return fmt.Errorf("live: WithQueueDepth(%d): queue depth cannot be negative", cfg.QueueDepth)
	}
	if cfg.Window < 0 {
		return fmt.Errorf("live: WithWindow(%d): satisfaction window cannot be negative", cfg.Window)
	}
	if cfg.SnapshotInterval < 0 {
		return fmt.Errorf("live: WithSnapshotInterval(%v): interval cannot be negative", cfg.SnapshotInterval)
	}
	if cfg.ParticipantDeadline < 0 {
		return fmt.Errorf("live: WithParticipantDeadline(%v): deadline cannot be negative", cfg.ParticipantDeadline)
	}
	if cfg.Policy != nil && (cfg.Allocator != nil || cfg.NewAllocator != nil) {
		return fmt.Errorf("live: WithPolicy is mutually exclusive with WithAllocator/WithAllocatorFactory — the policy builds the per-shard allocators")
	}
	if cfg.Tuner != nil {
		if cfg.Policy == nil {
			return fmt.Errorf("live: WithTuner requires WithPolicy — the tuner retunes the declarative policy")
		}
		if cfg.SnapshotInterval <= 0 {
			return fmt.Errorf("live: WithTuner requires WithSnapshotInterval — satisfaction snapshots are the tuner's sensor input")
		}
	}
	return nil
}

// NewEngineFromConfig builds the asynchronous engine from a v1 Config —
// the bridge for code still holding struct configs.
func NewEngineFromConfig(cfg Config) (*Engine, error) { return newEngine(cfg) }

func newEngine(cfg Config) (*Engine, error) {
	// The tuner is created before the service so its snapshot intake can be
	// composed into the observer the shards capture; it is bound to the
	// engine (its Reconfigure surface) once the engine exists. The tuner
	// goes *first* in the composition: it clones the snapshot maps
	// synchronously in Observe, after which the user observer receives
	// them still owning them outright (per the event.Observer contract) —
	// even a user observer that hands its maps to another goroutine
	// cannot race the tuner's copy.
	var tuner *policy.Tuner
	if cfg.Tuner != nil {
		tuner = policy.NewTuner(nil, *cfg.Tuner)
		cfg.Observer = event.Multi(tuner.Observer(), cfg.Observer)
	}
	// The durability recorder joins the observer chain before the service
	// captures it, so every shard's events reach the journal. The store is
	// opened here; restore waits until the service (and its registry)
	// exists.
	var pst *enginePersistence
	if cfg.PersistDir != "" {
		var err error
		pst, err = openPersistence(cfg.PersistDir, cfg.PersistOpts)
		if err != nil {
			return nil, err
		}
		pst.rec = pst.store.NewRecorder()
		cfg.Observer = event.Multi(pst.rec, cfg.Observer)
	}
	svc, err := NewServiceWithConfig(cfg)
	if err != nil {
		if pst != nil {
			pst.rec.Close()
			pst.store.Close()
		}
		return nil, err
	}
	if pst != nil {
		if err := pst.restore(svc, &cfg); err != nil {
			pst.rec.Close()
			pst.store.Close()
			return nil, err
		}
		pst.rec.SetPolicySource(svc.policySource)
		// The recorder joined the observer chain before the service was
		// built; its writer starts only now that the store has restored
		// and is open for appends.
		pst.rec.Start()
	}
	depth := cfg.QueueDepth
	if depth < 1 {
		depth = 1024
	}
	// The QoS spec: WithQoS wins, then the construction policy's qos block;
	// neither means the single default class — the pre-QoS FIFO semantics.
	var qspec qos.Spec
	if cfg.QoS != nil {
		qspec = *cfg.QoS
	} else if cfg.Policy != nil && cfg.Policy.QoS != nil {
		qspec = *cfg.Policy.QoS
	}
	if err := qspec.Validate(); err != nil {
		if pst != nil {
			pst.rec.Close()
			pst.store.Close()
		}
		return nil, err
	}
	e := &Engine{
		svc:      svc,
		scheds:   make([]*qos.Scheduler[engineItem], len(svc.shards)),
		tuner:    tuner,
		pst:      pst,
		baseQoS:  qspec.Normalized(),
		stopSnap: make(chan struct{}),
	}
	for i := range e.scheds {
		e.scheds[i] = qos.NewScheduler[engineItem](qspec, depth, svc.nowFn)
		e.wg.Add(1)
		go e.shardLoop(i)
	}
	if cfg.SnapshotInterval > 0 && cfg.Observer != nil {
		e.wg.Add(1)
		go e.snapshotLoop(cfg.SnapshotInterval, cfg.Observer)
	}
	if pst != nil {
		pcfg := persist.Config{}
		for _, o := range cfg.PersistOpts {
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
	if tuner != nil {
		tuner.Bind(e)
		tuner.BindBrownout(e)
		tuner.Start()
	}
	return e, nil
}

// shardLoop drains one shard's scheduler until Close: pop per the class
// discipline, fail pop-time sheds (deadline expired while queued), mediate
// the rest, and feed the observed service time back into the scheduler's
// EWMA — the yardstick of the next admission's deadline-feasibility check.
func (e *Engine) shardLoop(i int) {
	defer e.wg.Done()
	sh := e.svc.shards[i]
	sched := e.scheds[i]
	for {
		item, res, ok := sched.Pop()
		if !ok {
			return
		}
		if res.Shed {
			e.shedTickets(item.tickets, res.Info)
			continue
		}
		if tr := e.svc.tracer; tr != nil {
			// The scheduler's own wait measurement becomes the queue span:
			// end = dequeue, start = end minus the measured wait. Recorded
			// before the mediation so it always precedes the trace's Finish.
			end := trace.Now()
			qStart := end - int64(res.Wait*1e9)
			for _, t := range item.tickets {
				if t.query.Trace.Sampled {
					tr.RecordSpan(t.query.Trace.ID, trace.Span{
						Name:  trace.StageQueue,
						Class: res.Class,
						Start: qStart,
						End:   end,
					})
				}
			}
		}
		start := e.svc.nowFn()
		if item.batch {
			e.svc.processGroup(item.ctx, sh, item.tickets)
		} else {
			e.svc.process(item.ctx, item.tickets[0])
		}
		if dt := e.svc.nowFn() - start; dt > 0 {
			// A batch group is one queue item but several mediations: feed
			// the per-query share so the admission estimate stays per-query.
			sched.ObserveService(dt / float64(len(item.tickets)))
		}
	}
}

// shedTickets fails every ticket of a shed item with the typed *ShedError
// and emits one event.Shed per query — a shed is never silent. Runs outside
// the scheduler lock (the scheduler only decides and counts).
func (e *Engine) shedTickets(tickets []*Ticket, info qos.ShedInfo) {
	for _, t := range tickets {
		t.finish(nil, &ShedError{
			Query:         t.query,
			Class:         info.Class,
			Reason:        info.Reason,
			QueueDepth:    info.QueueDepth,
			EstimatedWait: info.EstimatedWait,
		}, nil, 0)
		if e.svc.obs != nil {
			e.svc.obs.OnShed(event.Shed{
				Query:         t.query,
				Class:         info.Class,
				Reason:        info.Reason,
				QueueDepth:    info.QueueDepth,
				EstimatedWait: info.EstimatedWait,
			})
		}
		e.svc.traceFinish(t.query, "shed", nil, nil)
	}
}

// snapshotLoop emits periodic satisfaction snapshots until Close. The same
// tick feeds the tuner's brownout controller its queue-pressure sample —
// the scheduler counters are the controller's Monitor phase, sampled at the
// cadence the satisfaction loop already established.
func (e *Engine) snapshotLoop(every time.Duration, obs event.Observer) {
	defer e.wg.Done()
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			obs.OnSatisfactionSnapshot(e.svc.satisfactionSnapshot())
			if e.tuner != nil {
				e.tuner.ObservePressure(e.QoSPressure())
			}
		case <-e.stopSnap:
			return
		}
	}
}

// Submit assigns the query its engine ID and enqueues it on its consumer's
// shard, returning a *Ticket immediately — mediation, dispatch, and worker
// execution all happen asynchronously. Track the outcome on the ticket:
// Allocation blocks for the mediation result, Await/Done for the
// per-worker results.
//
// ctx covers the whole submission: if it is done before the shard picks the
// query up (or during dispatch), the ticket fails with the context error.
// When the query's class queue is full, Submit blocks until space frees or
// ctx is done for classes without an explicit depth bound (backpressure),
// and fails the ticket with a *ShedError for classes that declare one (load
// shedding — see WithQoS, WithQoSClass, WithDeadline). After Close, tickets
// fail with ErrEngineClosed.
func (e *Engine) Submit(ctx context.Context, q model.Query, opts ...QueryOption) *Ticket {
	var so submitOptions
	for _, o := range opts {
		o(&so)
	}
	q.ID = model.QueryID(e.svc.nextID.Add(1))
	q.IssuedAt = e.svc.nowFn()
	if so.qosClass != "" {
		q.QoS = so.qosClass
	}
	if so.deadline > 0 {
		q.Deadline = q.IssuedAt + so.deadline.Seconds()
	}
	if tr := e.svc.tracer; tr != nil {
		if !q.Trace.Decided {
			q.Trace, _ = tr.StartLocal()
		}
		if q.Trace.Sampled {
			tr.Annotate(q.Trace.ID, q.ID, q.Consumer)
		}
	}
	t := newTicket(q, so.results, !so.fireAndForget)
	if err := e.guardSubmit(q); err != nil {
		t.finish(nil, err, nil, 0)
		e.svc.traceFinish(q, "rejected", err, nil)
		return t
	}
	e.enqueue(ctx, e.svc.shardIndex(q.Consumer), q.QoS, q.Deadline, engineItem{ctx: ctx, tickets: []*Ticket{t}})
	return t
}

// SetSubmitGuard installs (or, with nil, removes) a submission guard: a
// function consulted for every Submit/SubmitBatch query before it reaches a
// shard queue. A non-nil error fails the ticket immediately with that error
// and the query is never mediated. The cluster layer uses this as its
// ownership check — a query for a consumer this node does not own fails
// typed instead of silently building satisfaction state the ring assigns to
// another node. The guard must be fast and safe for concurrent use; without
// one (the default) submissions behave exactly as before.
func (e *Engine) SetSubmitGuard(fn func(model.Query) error) {
	if fn == nil {
		e.guard.Store(nil)
		return
	}
	e.guard.Store(&fn)
}

// guardSubmit applies the installed submission guard, if any.
func (e *Engine) guardSubmit(q model.Query) error {
	if g := e.guard.Load(); g != nil {
		return (*g)(q)
	}
	return nil
}

// SubmitBatch assigns IDs in input order, stamps the whole batch with one
// arrival time, and enqueues each (shard, QoS class) group as a unit
// (mediated under a single lock acquisition; a group schedules under its
// class with its earliest member's deadline). It returns the position-aligned tickets immediately; per-query
// options apply to every ticket in the batch.
func (e *Engine) SubmitBatch(ctx context.Context, queries []model.Query, opts ...QueryOption) []*Ticket {
	var so submitOptions
	for _, o := range opts {
		o(&so)
	}
	tickets := make([]*Ticket, len(queries))
	if len(queries) == 0 {
		return tickets
	}
	now := e.svc.nowFn()
	type groupKey struct {
		idx   int
		class string
	}
	groups := make(map[groupKey][]*Ticket, len(e.scheds))
	deadlines := make(map[groupKey]float64, len(e.scheds))
	for i, q := range queries {
		q.ID = model.QueryID(e.svc.nextID.Add(1))
		q.IssuedAt = now
		if so.qosClass != "" {
			q.QoS = so.qosClass
		}
		if so.deadline > 0 {
			q.Deadline = now + so.deadline.Seconds()
		}
		if tr := e.svc.tracer; tr != nil {
			if !q.Trace.Decided {
				q.Trace, _ = tr.StartLocal()
			}
			if q.Trace.Sampled {
				tr.Annotate(q.Trace.ID, q.ID, q.Consumer)
			}
		}
		t := newTicket(q, so.results, !so.fireAndForget)
		tickets[i] = t
		if err := e.guardSubmit(q); err != nil {
			// The guard rejects per query: the rest of the batch proceeds.
			t.finish(nil, err, nil, 0)
			e.svc.traceFinish(q, "rejected", err, nil)
			continue
		}
		key := groupKey{idx: e.svc.shardIndex(q.Consumer), class: q.QoS}
		groups[key] = append(groups[key], t)
		if q.Deadline > 0 {
			if d, ok := deadlines[key]; !ok || q.Deadline < d {
				deadlines[key] = q.Deadline
			}
		}
	}
	for key, group := range groups {
		e.enqueue(ctx, key.idx, key.class, deadlines[key], engineItem{ctx: ctx, tickets: group, batch: true})
	}
	return tickets
}

// enqueue hands an item to a shard's scheduler, failing its tickets when
// the engine is closed, ctx is done while blocked on backpressure, or the
// scheduler sheds the item. The scheduler handles the close race internally
// (a Push concurrent with Close fails with ErrSchedulerClosed instead of
// panicking like a send on a closed channel would), so no lock spans the
// call.
func (e *Engine) enqueue(ctx context.Context, idx int, class string, deadline float64, item engineItem) {
	sched := e.scheds[idx]
	ci, _ := sched.ClassIndex(class) // unknown classes fold into the default
	info, err := sched.Push(ctx, ci, deadline, item)
	switch {
	case err != nil:
		if errors.Is(err, qos.ErrSchedulerClosed) {
			err = ErrEngineClosed
		}
		failTickets(item.tickets, err)
		for _, t := range item.tickets {
			e.svc.traceFinish(t.query, "rejected", err, nil)
		}
	case info != nil:
		e.shedTickets(item.tickets, *info)
	}
}

// failTickets completes tickets that never reached a shard.
func failTickets(tickets []*Ticket, err error) {
	for _, t := range tickets {
		t.finish(nil, err, nil, 0)
	}
}

// Close stops the engine's background work: shard loops finish the
// submissions already queued (their tickets complete normally), the
// snapshot ticker stops, and subsequent submissions fail with
// ErrEngineClosed. Close does not stop workers — they keep executing
// accepted queries — and does not touch the blocking Service surface.
// Close is idempotent.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()
	if e.tuner != nil {
		e.tuner.Close() // stop retuning before the shard loops drain
	}
	close(e.stopSnap)
	if e.pst != nil {
		close(e.pst.stop)
	}
	for _, s := range e.scheds {
		s.Close()
	}
	e.wg.Wait()
	if e.pst != nil {
		// Shard loops have drained: journal the tail, write the final
		// snapshot (warm-restart point), close the store.
		e.closePersistence()
	}
}

// Service exposes the blocking v1 surface sharing this engine's shards,
// directory, and registry — the two fronts may be mixed freely.
func (e *Engine) Service() *Service { return e.svc }

// Policy returns the engine's current target policy spec, if one is
// installed (WithPolicy at construction, or any accepted Reconfigure).
func (e *Engine) Policy() (policy.Spec, bool) { return e.svc.Policy() }

// PolicyGeneration returns the number of the latest accepted policy
// generation.
func (e *Engine) PolicyGeneration() uint64 { return e.svc.PolicyGeneration() }

// Reconfigure replaces the running allocation policy: the spec is validated
// and built up front (on error nothing changes), then every shard adopts
// the new allocators at its next mediation boundary — in-flight and queued
// mediations are never interrupted, the hot path pays one atomic load, and
// satisfaction memory is preserved. Concurrent with submissions and safe
// under churn; emits event.PolicyChange and bumps Stats().PolicyGeneration.
//
// A spec with a qos block also reconfigures every shard scheduler live:
// queued queries migrate to the new class table by class name (classes that
// disappear fold into the new default) and per-class counters survive for
// the classes that remain. A spec without one restores the construction-time
// QoS configuration, like a spec without a participant deadline restores
// the base deadline.
func (e *Engine) Reconfigure(ctx context.Context, spec policy.Spec) error {
	if err := e.svc.Reconfigure(ctx, spec); err != nil {
		return err
	}
	qspec := e.baseQoS
	if spec.QoS != nil {
		qspec = *spec.QoS
	}
	for _, s := range e.scheds {
		s.Configure(qspec)
	}
	return nil
}

// Tuner returns the engine's autonomic policy tuner, or nil when the
// engine was built without WithTuner.
func (e *Engine) Tuner() *policy.Tuner { return e.tuner }

// Tracer returns the engine's mediation tracer, or nil when the engine was
// built without WithTracing. The gateway's trace and debug endpoints read
// from it.
func (e *Engine) Tracer() *trace.Recorder { return e.svc.Tracer() }

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

// Shards returns the number of mediator shards.
func (e *Engine) Shards() int { return e.svc.Shards() }

// Directory exposes the shared participant catalog.
func (e *Engine) Directory() *directory.Directory { return e.svc.Directory() }

// Registry exposes the shared lock-striped satisfaction registry.
func (e *Engine) Registry() *satisfaction.Registry { return e.svc.Registry() }

// RegisterWorker attaches a worker; it is immediately a candidate on every
// shard.
func (e *Engine) RegisterWorker(w *Worker) { e.svc.RegisterWorker(w) }

// RegisterProvider attaches an arbitrary provider implementation (not
// dispatched to unless it is a *Worker; see Service.RegisterProvider).
func (e *Engine) RegisterProvider(p mediator.Provider) { e.svc.RegisterProvider(p) }

// UnregisterWorker detaches a worker and drops its satisfaction memory.
func (e *Engine) UnregisterWorker(id model.ProviderID) { e.svc.UnregisterWorker(id) }

// RegisterConsumer attaches a consumer.
func (e *Engine) RegisterConsumer(c mediator.Consumer) { e.svc.RegisterConsumer(c) }

// UnregisterConsumer detaches a consumer and drops its satisfaction memory.
func (e *Engine) UnregisterConsumer(id model.ConsumerID) { e.svc.UnregisterConsumer(id) }

// ProviderSatisfaction reads δs(p) from the shared registry.
func (e *Engine) ProviderSatisfaction(id model.ProviderID) float64 {
	return e.svc.ProviderSatisfaction(id)
}

// ConsumerSatisfaction reads δs(c) from the shared registry.
func (e *Engine) ConsumerSatisfaction(id model.ConsumerID) float64 {
	return e.svc.ConsumerSatisfaction(id)
}

// Stats snapshots the engine's counters: the service counters plus each
// shard's scheduler ledger — instantaneous queue depth, lifetime high-water
// mark, and cumulative enqueued/dequeued/shed counts.
func (e *Engine) Stats() Stats {
	st := e.svc.Stats()
	for i := range st.Shards {
		qs := e.scheds[i].Stats()
		st.Shards[i].QueueDepth = qs.Depth
		st.Shards[i].QueueHighWater = qs.HighWater
		st.Shards[i].QueueEnqueued = qs.Enqueued
		st.Shards[i].QueueDequeued = qs.Dequeued
		st.Shards[i].QueueShed = qs.Shed
	}
	if e.pst != nil {
		pstStats := e.pst.rec.Stats()
		st.Persistence = &pstStats
	}
	return st
}

// QoSStats snapshots every shard scheduler's per-class ledger, in shard
// order: per-class depth, high-water, enqueued/dequeued, and shed counts by
// reason, plus the shard's service-time EWMA and brownout level. The
// gateway's /metrics families are built from this.
func (e *Engine) QoSStats() []qos.Stats {
	out := make([]qos.Stats, len(e.scheds))
	for i, s := range e.scheds {
		out[i] = s.Stats()
	}
	return out
}

// QoSSpec returns the QoS configuration the engine currently runs
// (normalized; shard 0's — Reconfigure keeps all shards in step). An engine
// without QoS configuration returns the zero spec (single default class).
// Gateways derive their admission limiters from this, so token buckets and
// class queues always enforce the same spec.
func (e *Engine) QoSSpec() qos.Spec {
	if len(e.scheds) == 0 {
		return qos.Spec{}
	}
	return e.scheds[0].Spec()
}

// QoSPressure aggregates the shard schedulers' overload signals: cumulative
// enqueued and shed counts summed across shards, the worst per-shard p99
// queue wait, and the total instantaneous depth — the brownout controller's
// sensor reading.
func (e *Engine) QoSPressure() qos.Pressure {
	var agg qos.Pressure
	for _, s := range e.scheds {
		p := s.Pressure()
		agg.Enqueued += p.Enqueued
		agg.Shed += p.Shed
		agg.Depth += p.Depth
		if p.WaitP99 > agg.WaitP99 {
			agg.WaitP99 = p.WaitP99
		}
	}
	return agg
}

// SetBrownout sets every shard scheduler's shed-widening level: level L
// immediately sheds admissions to the L most-sheddable classes (ascending
// weight, non-priority first; the top class always admits). The tuner's
// brownout controller drives this under sustained pressure; operators may
// call it directly.
func (e *Engine) SetBrownout(level int) {
	for _, s := range e.scheds {
		s.SetBrownout(level)
	}
}

// Brownout returns the current shed-widening level (shard 0's — SetBrownout
// keeps all shards in step).
func (e *Engine) Brownout() int {
	if len(e.scheds) == 0 {
		return 0
	}
	return e.scheds[0].Brownout()
}
