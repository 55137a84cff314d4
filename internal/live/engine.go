package live

import (
	"context"
	"errors"
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

// Config assembles a sharded mediation engine. The zero value is not usable
// on its own: either Allocator (single shard) or NewAllocator must be set.
//
// Deprecated: Config remains the v1 construction surface and keeps working,
// but new code should build an Engine through NewEngine and the functional
// options (WithWindow, WithConcurrency, WithAllocatorFactory, WithClock,
// WithObserver, ...), which cover the same knobs and the async extras.
type Config struct {
	// Window is the satisfaction memory length k.
	Window int

	// Concurrency is the number of mediator shards. Values below 1 mean 1.
	// Queries route to shards by a hash of their ConsumerID, so a single
	// consumer's stream is always serialized while distinct consumers
	// mediate in parallel.
	Concurrency int

	// Allocator is the allocation technique for a single-shard engine.
	// Ignored when NewAllocator is set.
	Allocator alloc.Allocator

	// NewAllocator builds one allocator per shard. Allocators carry
	// internal state (sampling RNGs, round-robin cursors) and are not safe
	// for concurrent use, so a multi-shard engine needs one instance per
	// shard; seed them per shard index for reproducible-yet-decorrelated
	// sampling streams. Required when Concurrency > 1 and Policy is nil.
	NewAllocator func(shard int) alloc.Allocator

	// Policy, when set, supplies the engine's allocation policy
	// declaratively: per-shard allocators come from Policy.Build(shard)
	// and the spec becomes the engine's generation-0 policy, replacing
	// Allocator/NewAllocator (setting both is a configuration error on
	// the NewEngine path). The running policy is later swapped with
	// Engine.Reconfigure.
	Policy *policy.Spec

	// Tuner, when set (WithTuner), runs a policy.Tuner bound to the
	// engine: a background MAPE-K loop that watches the satisfaction
	// snapshot stream and issues bounded Reconfigure steps. Requires
	// Policy and a positive SnapshotInterval — the snapshots are the
	// tuner's sensor input.
	Tuner *policy.TunerConfig

	// AnalyzeBest mirrors mediator.Config.AnalyzeBest: evaluate the
	// consumer's intention over the whole candidate set so allocation
	// satisfaction is measured against the true optimum.
	AnalyzeBest bool

	// OnMediation mirrors mediator.Config.OnMediation. With several shards
	// it is invoked concurrently and must be safe for concurrent use.
	//
	// Deprecated: the v1 observability hook; set Observer instead, which
	// also sees rejections, dispatch failures, and registration churn.
	// When both are set, both fire.
	OnMediation func(a *model.Allocation, candidates int)

	// Observer receives the engine's lifecycle events: allocations and
	// rejections (from every mediator shard), dispatch failures,
	// registration churn on the shared directory, and — when the engine is
	// built with a snapshot interval — periodic satisfaction snapshots.
	// Callbacks run synchronously on the emitting goroutine and must be
	// fast, non-blocking, and safe for concurrent use.
	Observer event.Observer

	// QueueDepth bounds each shard's asynchronous submission queue (the
	// Engine ticket path; the blocking Service calls bypass the queues).
	// Values below 1 mean 1024.
	QueueDepth int

	// QoS, when set (WithQoS), installs the engine's overload-survival
	// configuration: class-aware shard scheduling and typed load shedding
	// (see the qos package). Takes precedence over the construction
	// policy's qos block; nil with no policy block keeps the historical
	// single-FIFO backpressure semantics. Engine-only, like QueueDepth.
	QoS *qos.Spec

	// SnapshotInterval, when positive and Observer is set, makes the
	// Engine emit OnSatisfactionSnapshot every interval (wall-clock).
	SnapshotInterval time.Duration

	// ParticipantDeadline mirrors mediator.Config.ParticipantDeadline: the
	// per-participant bound on each context-aware participant call during
	// batched intention and bid collection. A participant that misses it is
	// abandoned and its intention imputed from the satisfaction registry
	// (counted in ShardStats.Imputations / IntentionTimeouts and emitted as
	// OnIntentionImputed). Zero means no per-participant bound.
	ParticipantDeadline time.Duration

	// NowFn overrides the engine clock: it returns the current time in
	// seconds on the mediation time axis. Nil uses wall-clock seconds
	// since the service started. Deterministic tests inject a fake clock.
	NowFn func() float64

	// PersistDir, when non-empty, makes the engine's adaptation state
	// durable under that directory (see WithPersistence); PersistOpts
	// tune the store. Only the asynchronous Engine honors these — the
	// blocking Service constructors ignore them (persistence needs the
	// engine's lifecycle: restore on construction, flush on Close).
	PersistDir  string
	PersistOpts []persist.Option

	// Trace, when set (WithTracing), builds the engine's flight recorder:
	// sampled queries record one span per pipeline stage plus the
	// allocation explain record, readable through Service.Tracer(). Nil
	// disables tracing entirely — the hot path then pays one nil check
	// per submission and nothing else.
	Trace *trace.Config
}

// shard is one mediation lane: a single-threaded mediator behind its own
// mutex, plus that lane's monotonic counters. The pointer indirection keeps
// each shard's hot mutex on its own cache line region.
type shard struct {
	mu  sync.Mutex
	med *mediator.Mediator

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

// shardObserver sits between each shard's mediator and the user observer:
// it maintains the shard's counters on every mediation outcome and forwards
// to the user observer when one is configured. The mediator only emits
// allocation and rejection events, so the other Observer methods come from
// the embedded Nop.
type shardObserver struct {
	event.Nop
	sh   *shard
	user event.Observer
}

func (o shardObserver) OnAllocation(a *model.Allocation, candidates int) {
	o.sh.mediations.Add(1)
	o.sh.candidateSum.Add(uint64(candidates))
	if o.user != nil {
		o.user.OnAllocation(a, candidates)
	}
}

func (o shardObserver) OnRejection(q model.Query, reason error) {
	o.sh.rejections.Add(1)
	if o.user != nil {
		o.user.OnRejection(q, reason)
	}
}

func (o shardObserver) OnIntentionImputed(im event.Imputation) {
	o.sh.imputations.Add(1)
	if im.Timeout() {
		o.sh.intentionTimeouts.Add(1)
	}
	if o.user != nil {
		o.user.OnIntentionImputed(im)
	}
}

// Service is a thread-safe mediation front end: a sharded engine over a
// shared provider directory and a shared lock-striped satisfaction
// registry. Its Submit/SubmitBatch calls are blocking thin wrappers over
// the ticket pipeline; the Engine facade exposes the same pipeline
// asynchronously. See the package documentation for the architecture.
type Service struct {
	dir    *directory.Directory
	reg    *satisfaction.Registry
	shards []*shard
	obs    event.Observer // user observer; nil when none configured
	pol    policyState    // declarative policy control plane (policy.go)
	nextID atomic.Int64
	start  time.Time
	nowFn  func() float64

	// baseDeadline is the engine-configured participant deadline
	// (WithParticipantDeadline); policies without a deadline of their own
	// run under it (see Reconfigure).
	baseDeadline time.Duration

	// tracer is the flight recorder (WithTracing); nil disables tracing.
	tracer *trace.Recorder
}

// NewService returns a single-shard service running the given allocation
// technique — the historical serialized front end, byte-identical in
// behavior to the pre-sharding implementation.
func NewService(allocator alloc.Allocator, window int) *Service {
	s, err := NewServiceWithConfig(Config{Allocator: allocator, Window: window})
	if err != nil {
		// Unreachable: the single-shard path has no invalid configurations
		// beyond a nil allocator, which fails at first Mediate exactly like
		// the historical constructor did.
		panic(err)
	}
	return s
}

// NewServiceWithConfig builds a sharded engine from cfg.
func NewServiceWithConfig(cfg Config) (*Service, error) {
	n := cfg.Concurrency
	if n < 1 {
		n = 1
	}
	// The base deadline is the engine-level configuration; a policy spec
	// may override it per generation, and a later spec with no deadline
	// restores this base (see policy.go).
	baseDeadline := cfg.ParticipantDeadline
	var spec policy.Spec
	if cfg.Policy != nil {
		spec = cfg.Policy.Normalized()
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		if spec.ParticipantDeadline > 0 && cfg.ParticipantDeadline == 0 {
			cfg.ParticipantDeadline = spec.ParticipantDeadline.Std()
		}
	} else if n > 1 && cfg.NewAllocator == nil {
		return nil, errors.New("live: Concurrency > 1 requires Config.NewAllocator or Config.Policy (allocators hold per-shard state and cannot be shared)")
	}
	s := &Service{
		dir:          directory.New(),
		reg:          satisfaction.NewRegistry(cfg.Window),
		shards:       make([]*shard, n),
		obs:          cfg.Observer,
		start:        time.Now(),
		baseDeadline: baseDeadline,
	}
	if cfg.NowFn != nil {
		s.nowFn = cfg.NowFn
	} else {
		s.nowFn = func() float64 { return time.Since(s.start).Seconds() }
	}
	if cfg.Observer != nil {
		s.dir.SetObserver(cfg.Observer)
	}
	if cfg.Trace != nil {
		s.tracer = trace.New(*cfg.Trace)
	}
	for i := range s.shards {
		a := cfg.Allocator
		if cfg.Policy != nil {
			var err error
			if a, err = spec.Build(i); err != nil {
				return nil, err
			}
		} else if cfg.NewAllocator != nil {
			a = cfg.NewAllocator(i)
		}
		sh := &shard{}
		sh.med = mediator.New(a, mediator.Config{
			Window:              cfg.Window,
			AnalyzeBest:         cfg.AnalyzeBest,
			OnMediation:         cfg.OnMediation,
			Observer:            shardObserver{sh: sh, user: cfg.Observer},
			Registry:            s.reg,
			Directory:           s.dir,
			ParticipantDeadline: cfg.ParticipantDeadline,
			Tracer:              s.tracer,
		})
		s.shards[i] = sh
	}
	if cfg.Policy != nil {
		s.installPolicy(spec)
	}
	return s, nil
}

// Shards returns the number of mediator shards.
func (s *Service) Shards() int { return len(s.shards) }

// Directory exposes the shared participant catalog.
func (s *Service) Directory() *directory.Directory { return s.dir }

// Tracer exposes the flight recorder, or nil when the engine was built
// without WithTracing. Callers read traces and stage histograms from it;
// gateways also use it to start trace contexts before submission.
func (s *Service) Tracer() *trace.Recorder { return s.tracer }

// traceFinish closes a sampled query's trace with the given outcome.
// No-op for unsampled queries and untraced engines.
func (s *Service) traceFinish(q model.Query, status string, err error, explain *model.Explain) {
	if !q.Trace.Sampled || s.tracer == nil {
		return
	}
	errStr := ""
	if err != nil {
		errStr = err.Error()
	}
	s.tracer.Finish(q.Trace.ID, status, errStr, explain)
}

// Registry exposes the shared lock-striped satisfaction registry.
func (s *Service) Registry() *satisfaction.Registry { return s.reg }

// shardIndex routes a consumer to its mediation shard's index.
func (s *Service) shardIndex(c model.ConsumerID) int {
	if len(s.shards) == 1 {
		return 0
	}
	h := (uint64(int64(c)) * 0x9E3779B97F4A7C15) >> 32
	return int(h % uint64(len(s.shards)))
}

// shardFor routes a consumer to its mediation shard.
func (s *Service) shardFor(c model.ConsumerID) *shard {
	return s.shards[s.shardIndex(c)]
}

// RegisterWorker attaches a worker to the mediation pipeline. Registration
// goes to the shared directory, so the worker is immediately a candidate on
// every shard.
func (s *Service) RegisterWorker(w *Worker) { s.dir.RegisterProvider(w) }

// RegisterProvider attaches an arbitrary provider implementation. Providers
// that are not *Worker participate in mediation (and satisfaction) but are
// not dispatched to — embedders deliver the allocation out of band.
func (s *Service) RegisterProvider(p mediator.Provider) { s.dir.RegisterProvider(p) }

// UnregisterWorker detaches a worker (its satisfaction memory is dropped).
func (s *Service) UnregisterWorker(id model.ProviderID) {
	s.dir.UnregisterProvider(id)
	s.reg.ForgetProvider(id)
}

// RegisterConsumer attaches a consumer.
func (s *Service) RegisterConsumer(c mediator.Consumer) { s.dir.RegisterConsumer(c) }

// UnregisterConsumer detaches a consumer and drops its satisfaction memory.
func (s *Service) UnregisterConsumer(id model.ConsumerID) {
	s.dir.UnregisterConsumer(id)
	s.reg.ForgetConsumer(id)
}

// ProviderSatisfaction reads δs(p) from the shared striped registry.
func (s *Service) ProviderSatisfaction(id model.ProviderID) float64 {
	return s.reg.ProviderSatisfaction(id)
}

// ConsumerSatisfaction reads δs(c) from the shared striped registry.
func (s *Service) ConsumerSatisfaction(id model.ConsumerID) float64 {
	return s.reg.ConsumerSatisfaction(id)
}

// Submit mediates the query on its consumer's shard and dispatches it to
// the selected workers, blocking until the hand-off completes. It assigns
// the query ID. The returned allocation lists the chosen workers; results
// arrive asynchronously on the results channel.
//
// results may be nil: the query is still mediated and executed, but the
// completed Results are discarded — fire-and-forget submission. Pass a
// channel with enough capacity (or a dedicated drainer); a full results
// channel blocks the executing worker, not the engine. New code that wants
// per-query results should prefer the Engine's ticket path
// (Engine.Submit → Ticket.Await), which collects exactly this query's
// results without a shared channel.
//
// Submit runs the same pipeline as the asynchronous Engine's tickets but
// ticket-free: the call is synchronous end to end, so no ticket struct or
// completion channel is needed — with Concurrency = 1 its outcome is
// byte-identical to driving a serialized mediator directly, and the hand-off
// itself allocates nothing on full delivery.
func (s *Service) Submit(ctx context.Context, q model.Query, results chan<- Result) (*model.Allocation, error) {
	q.ID = model.QueryID(s.nextID.Add(1))
	q.IssuedAt = s.nowFn()
	if s.tracer != nil {
		// Adopt an upstream trace context (gateway or forwarded) as-is;
		// draw a fresh sampling decision only when no layer above has.
		if !q.Trace.Decided {
			q.Trace, _ = s.tracer.StartLocal()
		}
		if q.Trace.Sampled {
			s.tracer.Annotate(q.Trace.ID, q.ID, q.Consumer)
		}
	}
	sh := s.shardFor(q.Consumer)
	sh.mu.Lock()
	sh.applyPolicy() // adopt a reconfigured policy at the mediation boundary
	a, err := sh.med.Mediate(ctx, q.IssuedAt, q)
	sh.mu.Unlock()
	if err != nil {
		err = dispatchErr(q, err)
		if errors.Is(err, ErrDispatch) {
			sh.dispatchFailures.Add(1)
			if s.obs != nil {
				s.obs.OnDispatchFailure(q, nil, err)
			}
		}
		s.traceFinish(q, "rejected", err, nil)
		return nil, err
	}
	var dStart int64
	if q.Trace.Sampled {
		dStart = trace.Now()
	}
	derr := s.dispatchSelected(ctx, q, a, results)
	if q.Trace.Sampled && s.tracer != nil {
		s.tracer.RecordSpan(q.Trace.ID, trace.Span{
			Name:  trace.StageDispatch,
			Start: dStart,
			End:   trace.Now(),
			Extra: int64(len(a.Selected)),
		})
		s.traceFinish(q, "allocated", derr, a.Explain)
	}
	if derr != nil {
		sh.dispatchFailures.Add(1)
		if s.obs != nil {
			s.obs.OnDispatchFailure(q, a, derr)
		}
	}
	return a, derr
}

// Mediate runs the full mediation pipeline for q on its consumer's shard —
// ID assignment, policy-generation adoption at the boundary, candidate
// discovery, intention collection, allocation, and satisfaction recording —
// but does NOT dispatch to workers. It is the embedding hook for
// deterministic harnesses (internal/lab) that drive the real engine under a
// virtual clock (Config.NowFn) and simulate execution themselves: with
// Concurrency = 1 a sequence of Mediate calls is byte-identical to driving
// a serialized mediator directly, and Reconfigure is adopted exactly at the
// next Mediate boundary.
//
// Unlike Submit, mediation errors are returned raw (ErrNoCandidates,
// ErrStaleSelection, ...), not wrapped in dispatch errors, and no dispatch
// counters or events fire — the caller owns execution.
func (s *Service) Mediate(ctx context.Context, q model.Query) (*model.Allocation, error) {
	q.ID = model.QueryID(s.nextID.Add(1))
	q.IssuedAt = s.nowFn()
	sh := s.shardFor(q.Consumer)
	sh.mu.Lock()
	sh.applyPolicy() // adopt a reconfigured policy at the mediation boundary
	a, err := sh.med.Mediate(ctx, q.IssuedAt, q)
	sh.mu.Unlock()
	return a, err
}

// process runs one ticket through its consumer's shard: mediation under the
// shard lock, then dispatch and ticket completion outside it. The ticket's
// submission context bounds the mediation itself — cancellation aborts an
// in-flight intention fan-out to context-aware participants.
func (s *Service) process(ctx context.Context, t *Ticket) {
	sh := s.shardFor(t.query.Consumer)
	sh.mu.Lock()
	sh.applyPolicy() // adopt a reconfigured policy at the mediation boundary
	a, err := sh.med.Mediate(ctx, t.query.IssuedAt, t.query)
	var workers []Executor
	if err == nil {
		workers = s.selectedWorkers(a)
	}
	sh.mu.Unlock()
	s.finishTicket(ctx, t, sh, a, err, workers)
}

// finishTicket dispatches a mediated ticket and completes it: on mediation
// failure the ticket fails immediately; otherwise the query is handed to
// the selected workers and the ticket completes with the allocation, the
// dispatch error (if any), and — on the collecting ticket path — a pending
// result count covering exactly the workers that accepted.
func (s *Service) finishTicket(ctx context.Context, t *Ticket, sh *shard, a *model.Allocation, merr error, workers []Executor) {
	if merr != nil {
		merr = dispatchErr(t.query, merr)
		if errors.Is(merr, ErrDispatch) {
			sh.dispatchFailures.Add(1)
			if s.obs != nil {
				s.obs.OnDispatchFailure(t.query, nil, merr)
			}
		}
		t.finish(nil, merr, nil, 0)
		s.traceFinish(t.query, "rejected", merr, nil)
		return
	}
	ch := t.userResults
	if t.collect {
		// Both channels are sized to the selection so neither a worker's
		// result delivery nor a closing worker's abandonment signal can
		// ever block.
		t.resCh = make(chan Result, len(workers))
		t.abandonCh = make(chan model.ProviderID, len(workers))
		ch = t.resCh
	}
	var dStart int64
	if t.query.Trace.Sampled {
		dStart = trace.Now()
	}
	err := s.dispatch(ctx, t.query, workers, ch, t.abandonCh)
	if t.query.Trace.Sampled && s.tracer != nil {
		s.tracer.RecordSpan(t.query.Trace.ID, trace.Span{
			Name:  trace.StageDispatch,
			Start: dStart,
			End:   trace.Now(),
			Extra: int64(len(workers)),
		})
	}
	expected := len(workers)
	if err != nil {
		sh.dispatchFailures.Add(1)
		if s.obs != nil {
			s.obs.OnDispatchFailure(t.query, a, err)
		}
		if de, ok := AsDispatchError(err); ok {
			expected = len(de.Accepted)
		}
	}
	if !t.collect {
		expected = 0
	}
	t.finish(a, err, t.resCh, expected)
	s.traceFinish(t.query, "allocated", err, a.Explain)
}

// selectedWorkers resolves the dispatchable executors of an allocation.
func (s *Service) selectedWorkers(a *model.Allocation) []Executor {
	workers := make([]Executor, 0, len(a.Selected))
	for _, pid := range a.Selected {
		if w, ok := s.dir.Provider(pid).(Executor); ok {
			workers = append(workers, w)
		}
	}
	return workers
}

// dispatch hands the query to every selected worker. Unlike the historical
// fail-fast hand-off it attempts all workers even after one refuses, so the
// returned *DispatchError partitions the selection into the workers that
// accepted (and will deliver Results) and the ones that did not — the
// retryable remainder. abandon (nil on the non-collecting path) lets a
// worker that shuts down mid-execution tell the ticket its result will
// never come.
func (s *Service) dispatch(ctx context.Context, q model.Query, workers []Executor, results chan<- Result, abandon chan<- model.ProviderID) error {
	var accepted, failed []model.ProviderID
	for _, w := range workers {
		if w.accept(ctx, q, results, abandon) {
			accepted = append(accepted, w.ProviderID())
		} else {
			failed = append(failed, w.ProviderID())
		}
	}
	if len(failed) == 0 {
		return nil
	}
	return &DispatchError{Query: q, Accepted: accepted, Failed: failed, Err: ctx.Err()}
}

// dispatchSelected is dispatch for the synchronous non-collecting path: it
// resolves executors straight from the allocation's selection (no
// intermediate worker slice) and tracks the accepted/failed partition in
// stack buffers, copying into a DispatchError only when a worker actually
// refuses — full delivery allocates nothing.
func (s *Service) dispatchSelected(ctx context.Context, q model.Query, a *model.Allocation, results chan<- Result) error {
	var acceptedArr, failedArr [16]model.ProviderID
	accepted := acceptedArr[:0]
	failed := failedArr[:0]
	for _, pid := range a.Selected {
		w, ok := s.dir.Provider(pid).(Executor)
		if !ok {
			// Not dispatchable (never registered as a worker, or departed
			// since mediation): delivery is out of band, same as dispatch's
			// selectedWorkers filtering.
			continue
		}
		if w.accept(ctx, q, results, nil) {
			accepted = append(accepted, pid)
		} else {
			failed = append(failed, pid)
		}
	}
	if len(failed) == 0 {
		return nil
	}
	return &DispatchError{
		Query:    q,
		Accepted: append([]model.ProviderID(nil), accepted...),
		Failed:   append([]model.ProviderID(nil), failed...),
		Err:      ctx.Err(),
	}
}

// SubmitBatch mediates a batch of queries and dispatches the allocations,
// returning position-aligned allocations and errors, blocking until every
// hand-off completes. Queries are grouped by shard and each shard mediates
// its group under a single lock acquisition via mediator.MediateBatch;
// distinct shards run concurrently. Query IDs are assigned in input order and every query
// carries the same issue timestamp (the batch is one arrival event).
//
// results may be nil (fire-and-forget; see Submit). A nil error with a
// non-nil allocation means mediated and dispatched. A *DispatchError with a
// non-nil allocation means mediated but part of the selection refused the
// hand-off (the error lists accepted vs failed workers); a *DispatchError
// with a nil allocation means the selection went stale before hand-off (it
// wraps mediator.ErrStaleSelection and nothing reached any worker) — check
// the allocation before inspecting it.
//
// Like Submit, SubmitBatch is a thin blocking wrapper over the ticket
// pipeline (see Engine.SubmitBatch for the asynchronous form).
func (s *Service) SubmitBatch(ctx context.Context, queries []model.Query, results chan<- Result) ([]*model.Allocation, []error) {
	allocs := make([]*model.Allocation, len(queries))
	errs := make([]error, len(queries))
	if len(queries) == 0 {
		return allocs, errs
	}
	now := s.nowFn()
	groups := make(map[*shard][]int, len(s.shards))
	tickets := make([]*Ticket, len(queries))
	for i, q := range queries {
		q.ID = model.QueryID(s.nextID.Add(1))
		q.IssuedAt = now
		tickets[i] = newTicket(q, results, false)
		sh := s.shardFor(q.Consumer)
		groups[sh] = append(groups[sh], i)
	}
	var wg sync.WaitGroup
	for sh, idxs := range groups {
		sh, idxs := sh, idxs
		wg.Add(1)
		go func() {
			defer wg.Done()
			group := make([]*Ticket, len(idxs))
			for j, i := range idxs {
				group[j] = tickets[i]
			}
			s.processGroup(ctx, sh, group)
			for _, i := range idxs {
				allocs[i], errs[i] = tickets[i].Allocation()
			}
		}()
	}
	wg.Wait()
	return allocs, errs
}

// processGroup mediates one shard's tickets as a batch (single lock
// acquisition) and completes each ticket.
func (s *Service) processGroup(ctx context.Context, sh *shard, tickets []*Ticket) {
	qs := make([]model.Query, len(tickets))
	for i, t := range tickets {
		qs[i] = t.query
	}
	// The batch is one arrival event: every ticket carries the same stamp.
	now := qs[0].IssuedAt
	sh.mu.Lock()
	sh.applyPolicy() // batches are one mediation boundary: one policy per batch
	as, errs := sh.med.MediateBatch(ctx, now, qs)
	workers := make([][]Executor, len(tickets))
	for j := range as {
		if errs[j] == nil {
			workers[j] = s.selectedWorkers(as[j])
		}
	}
	sh.mu.Unlock()
	for j, t := range tickets {
		s.finishTicket(ctx, t, sh, as[j], errs[j], workers[j])
	}
}

// ShardStats is one mediation lane's lifetime counters, plus the depth of
// its asynchronous submission queue at snapshot time.
type ShardStats struct {
	// Mediations counts successful mediations on this shard.
	Mediations uint64

	// Rejections counts failed mediations (no candidates, stale selection,
	// malformed or misaddressed queries).
	Rejections uint64

	// DispatchFailures counts allocations that could not be (fully)
	// delivered to their selected workers.
	DispatchFailures uint64

	// MeanCandidates is the mean size of the population allocators drew
	// from over this shard's successful mediations (0 when none): the
	// class's index bucket, or |P_q| where a technique materialised it —
	// the same number whenever no provider refuses.
	MeanCandidates float64

	// Imputations counts intention-batch positions this shard filled from
	// satisfaction registry state because a context-aware participant
	// stayed silent or failed during the fan-out.
	Imputations uint64

	// IntentionTimeouts counts the subset of Imputations caused by a
	// participant missing its per-participant deadline
	// (WithParticipantDeadline).
	IntentionTimeouts uint64

	// PolicyGeneration is the policy generation this shard is currently
	// running (0 = the construction-time policy); it trails
	// Stats.PolicyGeneration until the shard hits its next mediation
	// boundary.
	PolicyGeneration uint64

	// PolicySwaps counts the generations this shard has applied — each a
	// Reconfigure adopted at a mediation boundary.
	PolicySwaps uint64

	// QueueDepth is the number of submissions waiting in this shard's
	// asynchronous queue. Always 0 through the blocking Service paths;
	// the Engine fills it in.
	QueueDepth int

	// QueueHighWater is the deepest this shard's asynchronous queue has
	// ever been (summed across QoS classes); QueueEnqueued and
	// QueueDequeued are its cumulative admission/drain counters, and
	// QueueShed counts the queries refused with a typed *ShedError
	// (deadline infeasible, class queue full, or brownout). All filled by
	// the Engine; always zero through the blocking Service paths.
	QueueHighWater int
	QueueEnqueued  uint64
	QueueDequeued  uint64
	QueueShed      uint64
}

// Stats is a point-in-time snapshot of the engine's counters: per-shard
// mediation outcomes, participant counts, and per-worker queue depths.
type Stats struct {
	// Shards holds one entry per mediation lane, in shard order.
	Shards []ShardStats

	// QueriesSubmitted is the number of query IDs assigned so far
	// (including queries whose mediation failed).
	QueriesSubmitted int64

	// Providers and Consumers count the participants currently registered
	// in the shared directory.
	Providers int
	Consumers int

	// WorkerQueueDepths maps every registered *Worker to the number of
	// tasks currently queued at it (including the one in service, if any).
	// Providers that are not dispatchable workers are absent.
	WorkerQueueDepths map[model.ProviderID]int

	// PolicyGeneration is the latest accepted policy generation (the
	// Reconfigure counter); individual shards adopt it at their next
	// mediation boundary (see ShardStats.PolicyGeneration).
	PolicyGeneration uint64

	// Persistence holds the durability counters when the engine was built
	// with WithPersistence; nil otherwise. Filled by Engine.Stats (the
	// blocking Service has no persistence).
	Persistence *persist.Stats
}

// Mediations returns the total successful mediations across all shards.
func (st Stats) Mediations() uint64 {
	var n uint64
	for _, sh := range st.Shards {
		n += sh.Mediations
	}
	return n
}

// Imputations returns the total imputed intention-batch positions across
// all shards.
func (st Stats) Imputations() uint64 {
	var n uint64
	for _, sh := range st.Shards {
		n += sh.Imputations
	}
	return n
}

// IntentionTimeouts returns the total deadline-missed participant calls
// across all shards.
func (st Stats) IntentionTimeouts() uint64 {
	var n uint64
	for _, sh := range st.Shards {
		n += sh.IntentionTimeouts
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

// Stats snapshots the service counters. Counters are read with atomic
// loads, not under a global lock, so the snapshot is internally consistent
// per counter but not across them — fine for monitoring, not for invariant
// checks against in-flight traffic.
func (s *Service) Stats() Stats {
	st := Stats{
		Shards:            make([]ShardStats, len(s.shards)),
		QueriesSubmitted:  s.nextID.Load(),
		Providers:         s.dir.NumProviders(),
		Consumers:         s.dir.NumConsumers(),
		WorkerQueueDepths: make(map[model.ProviderID]int),
		PolicyGeneration:  s.pol.gen.Load(),
	}
	for i, sh := range s.shards {
		m := sh.mediations.Load()
		ss := ShardStats{
			Mediations:        m,
			Rejections:        sh.rejections.Load(),
			DispatchFailures:  sh.dispatchFailures.Load(),
			Imputations:       sh.imputations.Load(),
			IntentionTimeouts: sh.intentionTimeouts.Load(),
			PolicyGeneration:  sh.appliedGen.Load(),
			PolicySwaps:       sh.policySwaps.Load(),
		}
		if m > 0 {
			ss.MeanCandidates = float64(sh.candidateSum.Load()) / float64(m)
		}
		st.Shards[i] = ss
	}
	for _, id := range s.dir.ProviderIDs() {
		if w, ok := s.dir.Provider(id).(Executor); ok {
			st.WorkerQueueDepths[id] = w.QueueDepth()
		}
	}
	return st
}

// satisfactionSnapshot samples every tracked participant's δs.
func (s *Service) satisfactionSnapshot() event.SatisfactionSnapshot {
	snap := event.SatisfactionSnapshot{
		Time:      s.nowFn(),
		Consumers: make(map[model.ConsumerID]float64),
		Providers: make(map[model.ProviderID]float64),
	}
	for _, id := range s.reg.ConsumerIDs() {
		snap.Consumers[id] = s.reg.ConsumerSatisfaction(id)
	}
	for _, id := range s.reg.ProviderIDs() {
		snap.Providers[id] = s.reg.ProviderSatisfaction(id)
	}
	return snap
}

var _ mediator.Provider = (*Worker)(nil)
var _ directory.CapabilityReporter = (*Worker)(nil)
var _ Executor = (*Worker)(nil)
var _ mediator.Consumer = FuncConsumer{}
