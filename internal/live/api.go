package live

import (
	"context"
	"errors"
	"time"

	"sbqa/internal/event"
	"sbqa/internal/model"
	"sbqa/internal/policy"
	"sbqa/internal/qos"
	"sbqa/internal/trace"
)

// ErrEngineClosed is returned (via the ticket) for submissions made after
// Engine.Close.
var ErrEngineClosed = errors.New("live: engine closed")

// Option configures an Engine under construction (see NewEngine).
type Option func(*config)

// WithWindow sets the satisfaction memory length k.
func WithWindow(k int) Option { return func(c *config) { c.window = k } }

// WithAnalyzeBest(true) makes every mediation also collect the consumer's
// intentions over the whole candidate set, so the registry measures
// allocation satisfaction against the true optimum (O(|P_q|) intention
// calls per query: for simulations of a few hundred providers, not for a
// production shard).
func WithAnalyzeBest(on bool) Option { return func(c *config) { c.analyzeBest = on } }

// WithConcurrency sets the number of mediator shards. Values below 1 mean
// one shard. Queries route to shards by a hash of their ConsumerID, so one
// consumer's stream stays serialized while distinct consumers mediate in
// parallel; each shard runs its own allocator, built from the policy.
func WithConcurrency(n int) Option { return func(c *config) { c.concurrency = n } }

// WithPolicy supplies the engine's allocation policy — required, and the one
// source of allocators: the validated spec builds one per shard
// (spec.Build(shard), so per-shard sampling streams are reproducible yet
// decorrelated; allocators hold sampling state and cannot be shared) and
// becomes the engine's generation-0 policy, visible through Engine.Policy and
// swappable at run time through Engine.Reconfigure. Its ParticipantDeadline
// and QoS block are what the engine boots with, and what a later spec that
// leaves them empty falls back to. A technique the registry does not ship
// reaches an engine through policy.Register.
func WithPolicy(spec policy.Spec) Option {
	return func(c *config) { c.policy = &spec }
}

// WithTuner runs an autonomic policy tuner bound to the engine: a MAPE-K
// controller the snapshot ticker steps once per tick (WithSnapshotInterval
// is therefore required), before the observer sees the snapshot. It issues
// bounded Reconfigure steps — widening kn under consumer starvation,
// nudging a fixed ω toward the adaptive rule under consumer/provider
// imbalance, narrowing kn and widening shedding under queue pressure —
// with hysteresis, a minimum interval between actions, and hard parameter
// bounds (see policy.TunerConfig). Its last step finishes before
// Engine.Close drains the shards; inspect it through Engine.Tuner.
func WithTuner(cfg policy.TunerConfig) Option {
	return func(c *config) { c.tuner = &cfg }
}

// WithClock overrides the engine clock: now returns the current time in
// seconds on the mediation time axis. Deterministic tests inject a fake
// clock; the default is wall-clock seconds since the engine started.
func WithClock(now func() float64) Option { return func(c *config) { c.nowFn = now } }

// WithObserver installs the engine's event stream: allocations, rejections,
// dispatch failures, registration churn, and (with WithSnapshotInterval)
// periodic satisfaction snapshots. Callbacks run synchronously on the
// emitting goroutine — with several shards, concurrently — and must be
// fast, non-blocking, and safe for concurrent use. To install several
// observers, compose them into one: a type that embeds one observer and, in
// the methods it overrides, calls the other. Embed event.Funcs
// (sbqa.ObserverFuncs) to implement only the events you care about.
func WithObserver(o event.Observer) Option { return func(c *config) { c.observer = o } }

// WithQueueDepth bounds each shard's asynchronous submission queue (the
// ticket path). For QoS classes without an explicit MaxQueueDepth this is
// the blocking bound: submissions beyond it block in Engine.Submit until
// the shard drains or the submission context is done — backpressure.
// Classes that do declare a MaxQueueDepth shed instead of blocking (see
// qos.Spec). Values below 1 mean 1024.
func WithQueueDepth(n int) Option { return func(c *config) { c.queueDepth = n } }

// WithSnapshotInterval makes the engine emit OnSatisfactionSnapshot to the
// configured observer every interval of wall-clock time. Zero (the
// default) disables snapshots.
func WithSnapshotInterval(d time.Duration) Option {
	return func(c *config) { c.snapshotInterval = d }
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
	return func(c *config) { c.trace = &trace.Config{Sample: sample, Buffer: buffer} }
}

// submitOptions collects per-query options.
type submitOptions struct {
	results  chan<- Result
	qosClass string
	deadline time.Duration
}

// QueryOption configures one submission (see Engine.Submit). It is a value
// naming the one field it sets, so folding a submission's options together
// allocates nothing; of two options of one kind, the later wins.
type QueryOption struct {
	sets uint8 // setsResults, setsQoSClass or setsDeadline
	val  submitOptions
}

const (
	setsResults = iota + 1
	setsQoSClass
	setsDeadline
)

// mergeOptions folds opts into one submitOptions, the last of each kind winning.
func mergeOptions(opts []QueryOption) submitOptions {
	var so submitOptions
	for _, o := range opts {
		switch o.sets {
		case setsResults:
			so.results = o.val.results
		case setsQoSClass:
			so.qosClass = o.val.qosClass
		case setsDeadline:
			so.deadline = o.val.deadline
		}
	}
	return so
}

// WithResults forwards the query's per-worker results to ch, in addition to
// collecting them on the ticket. Each worker sends its own result from the
// goroutine serving its backlog before the ticket counts it, so a full channel
// stalls the delivering workers — never a mediation shard — and results are on
// ch by the time Done closes. One channel may serve any number of submissions.
func WithResults(ch chan<- Result) QueryOption {
	return QueryOption{sets: setsResults, val: submitOptions{results: ch}}
}

// WithQoSClass queues the query under the named QoS class ("interactive",
// "batch", "background", or any class the running qos spec declares).
// Unknown names fold into the spec's default class; without a QoS spec the
// single default class applies and the option is inert. Overrides a class
// already set on the query.
func WithQoSClass(class string) QueryOption {
	return QueryOption{sets: setsQoSClass, val: submitOptions{qosClass: class}}
}

// WithDeadline gives the query a start-of-mediation deadline d from
// submission time: the shard scheduler serves earlier deadlines first
// within a class and sheds the query with a typed *ShedError (reason
// "deadline") when its estimated queue wait would overrun the deadline —
// at admission, or at dequeue if the deadline expired while queued.
// Non-positive d leaves any deadline already on the query in force.
func WithDeadline(d time.Duration) QueryOption {
	return QueryOption{sets: setsDeadline, val: submitOptions{deadline: d}}
}

// engineItem is one unit of shard-loop work: one submitted ticket and the
// context it was submitted under.
type engineItem struct {
	ctx context.Context
	t   *Ticket
}

// shardLoop drains one shard's scheduler until Close, serving each item it
// pops. Admit hands an idle shard's item to its submitter instead (see
// SubmitWait); Next waits while that one is in service.
func (e *Engine) shardLoop(sh *shard) {
	defer e.wg.Done()
	for {
		item, res, ok := sh.sched.Next()
		if !ok {
			return
		}
		e.serve(sh, item, res)
	}
}

// serve is the one per-item body, on the shard loop or on the submitter that
// Admit let run: fail a pop-time shed (deadline expired while queued), else
// record the queue span, mediate, and report the service time to the
// scheduler — its EWMA is the yardstick of the next admission's
// deadline-feasibility check, and Done lets the shard serve the next item.
func (e *Engine) serve(sh *shard, item engineItem, res qos.PopResult) {
	if res.Shed {
		e.shedTicket(item.t, res.Info)
		return
	}
	if tr := e.tracer; tr != nil && item.t.query.Trace.Sampled {
		// The scheduler's own wait measurement becomes the queue span:
		// end = dequeue, start = end minus the measured wait (zero-length
		// for an item its submitter runs). Recorded before the mediation so
		// it always precedes the trace's Finish.
		end := trace.Now()
		tr.RecordSpan(item.t.query.Trace.ID, trace.Span{
			Name:  trace.StageQueue,
			Class: res.Class,
			Start: end - int64(res.Wait*1e9),
			End:   end,
		})
	}
	start := e.nowFn()
	e.process(item.ctx, sh, item.t)
	sh.sched.Done(e.nowFn() - start)
}

// shedTicket fails a shed ticket with the typed *ShedError and emits its
// event.Shed — a shed is never silent. Runs outside the scheduler lock (the
// scheduler only decides and counts).
func (e *Engine) shedTicket(t *Ticket, info qos.ShedInfo) {
	e.obs.OnShed(event.Shed{
		Query:         t.query,
		Class:         info.Class,
		Reason:        info.Reason,
		QueueDepth:    info.QueueDepth,
		EstimatedWait: info.EstimatedWait,
	})
	e.failTicket(t, "shed", &ShedError{
		Query:         t.query,
		Class:         info.Class,
		Reason:        info.Reason,
		QueueDepth:    info.QueueDepth,
		EstimatedWait: info.EstimatedWait,
	})
}

// failTicket completes a ticket without an allocation, closing its trace
// with status.
func (e *Engine) failTicket(t *Ticket, status string, err error) {
	e.traceFinish(t.query, status, err, nil)
	t.finish(nil, err)
}

// snapshotLoop emits periodic satisfaction snapshots until Close. On each
// tick the tuner, when there is one, steps first — over the snapshot and the
// shard schedulers' queue pressure — and the observer then receives the
// snapshot, owning its maps outright.
func (e *Engine) snapshotLoop(every time.Duration) {
	defer e.snapWG.Done()
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case now := <-ticker.C:
			snap := e.satisfactionSnapshot()
			if e.tuner != nil {
				e.tuner.Step(now, snap, e.QoSPressure())
			}
			e.obs.OnSatisfactionSnapshot(snap)
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
// shedding — see qos.Spec, WithQoSClass, WithDeadline). After Close, tickets
// fail with ErrEngineClosed.
func (e *Engine) Submit(ctx context.Context, q model.Query, opts ...QueryOption) *Ticket {
	return e.submit(ctx, q, opts, false)
}

// SubmitWait is Submit for a caller that waits for the allocation next. When
// the consumer's shard has nothing queued and nothing in service, the
// calling goroutine mediates and dispatches the query itself, exactly as the
// shard loop would, and SubmitWait returns with the ticket allocated — no
// hand-off to the shard loop and back. Otherwise the query queues as with
// Submit and SubmitWait returns at once; Allocation then waits as usual.
// Either way one consumer's queries mediate in submission order, and no
// queued query of any class is overtaken. Admission, sheds, backpressure
// and ctx behave as for Submit.
//
// Like Submit(...).Allocation(), SubmitWait must not be called from an
// observer callback: the callback may run inside the mediation the new
// query would wait behind.
func (e *Engine) SubmitWait(ctx context.Context, q model.Query, opts ...QueryOption) *Ticket {
	return e.submit(ctx, q, opts, true)
}

// submit is Submit and SubmitWait; serve lets the submitter run the query on
// an idle shard.
func (e *Engine) submit(ctx context.Context, q model.Query, opts []QueryOption, serve bool) *Ticket {
	so := mergeOptions(opts)
	q.ID = model.QueryID(e.nextID.Add(1))
	q.IssuedAt = e.nowFn()
	if so.qosClass != "" {
		q.QoS = so.qosClass
	}
	if so.deadline > 0 {
		q.Deadline = q.IssuedAt + so.deadline.Seconds()
	}
	if tr := e.tracer; tr != nil {
		// Adopt an upstream trace context (gateway or forwarded) as-is;
		// draw a fresh sampling decision only when no layer above has.
		if !q.Trace.Decided {
			q.Trace, _ = tr.StartLocal()
		}
		if q.Trace.Sampled {
			tr.Annotate(q.Trace.ID, q.ID, q.Consumer)
		}
	}
	t := newTicket(q, so.results)
	if g := e.guard.Load(); g != nil {
		if err := (*g)(q); err != nil {
			e.failTicket(t, "rejected", err)
			return t
		}
	}
	e.enqueue(ctx, t, serve)
	return t
}

// SetSubmitGuard installs (or, with nil, removes) a submission guard: a
// function consulted for every submitted query before it reaches a
// shard queue. A non-nil error fails the ticket immediately with that error
// and the query is never mediated. The cluster layer uses this as its
// ownership check — a query for a consumer this node does not own fails
// typed instead of silently building satisfaction state the ring assigns to
// another node. The guard must be fast and safe for concurrent use.
func (e *Engine) SetSubmitGuard(fn func(model.Query) error) {
	if fn == nil {
		e.guard.Store(nil)
		return
	}
	e.guard.Store(&fn)
}

// enqueue hands a ticket to its consumer's shard scheduler under the
// query's class and deadline, failing it when the engine is closed, ctx is
// done while blocked on backpressure, or the scheduler sheds it; with serve,
// it runs the ticket here when the scheduler says the shard is idle. The
// scheduler handles the close race internally (an Admit concurrent with
// Close fails with ErrSchedulerClosed instead of panicking like a send on a
// closed channel would), so no lock spans the call.
func (e *Engine) enqueue(ctx context.Context, t *Ticket, serve bool) {
	sh := e.shardFor(t.query.Consumer)
	ci, _ := sh.sched.ClassIndex(t.query.QoS) // unknown classes fold into the default
	item := engineItem{ctx: ctx, t: t}
	res, run, info, err := sh.sched.Admit(ctx, ci, t.query.Deadline, item, serve)
	switch {
	case err != nil:
		if errors.Is(err, qos.ErrSchedulerClosed) {
			err = ErrEngineClosed
		}
		e.failTicket(t, "rejected", err)
	case info != nil:
		e.shedTicket(t, *info)
	case run:
		e.serve(sh, item, res)
	}
}

// Close stops the engine's background work: shard loops finish the
// submissions already queued, Close waits for the mediations SubmitWait
// callers are running (their tickets complete normally), the
// snapshot ticker stops, and subsequent submissions fail with
// ErrEngineClosed. Close does not stop workers — they keep executing
// accepted queries. Close is idempotent.
func (e *Engine) Close() {
	if !e.stop() {
		return
	}
	if e.pst != nil {
		// Shard loops have drained: journal the tail, write the final
		// snapshot (warm-restart point), close the store.
		e.closePersistence()
	}
}

// stop marks the engine closed and waits for its background goroutines;
// false means a previous call already did.
func (e *Engine) stop() bool {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return false
	}
	e.closed = true
	e.mu.Unlock()
	close(e.stopSnap)
	e.snapWG.Wait() // stop retuning before the shard loops drain
	if e.pst != nil {
		close(e.pst.stop)
	}
	for _, sh := range e.shards {
		sh.sched.Close()
	}
	e.wg.Wait()
	return true
}

// QoSSpec returns the QoS configuration the engine currently runs
// (normalized; shard 0's — Reconfigure keeps all shards in step). An engine
// without QoS configuration returns the zero spec (single default class).
// Gateways derive their admission limiters from this, so token buckets and
// class queues always enforce the same spec.
func (e *Engine) QoSSpec() qos.Spec { return e.shards[0].sched.Spec() }

// QoSPressure aggregates the shard schedulers' overload signals: cumulative
// enqueued and shed counts summed across shards, the worst per-shard p99
// queue wait, and the total instantaneous depth — the brownout controller's
// sensor reading.
func (e *Engine) QoSPressure() qos.Pressure {
	var agg qos.Pressure
	for _, sh := range e.shards {
		p := sh.sched.Pressure()
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
	for _, sh := range e.shards {
		sh.sched.SetBrownout(level)
	}
}

// Brownout returns the current shed-widening level (shard 0's — SetBrownout
// keeps all shards in step).
func (e *Engine) Brownout() int { return e.shards[0].sched.Brownout() }
