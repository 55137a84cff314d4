// Package live embeds the SbQA mediation pipeline in a real concurrent
// runtime: consumers submit queries from any goroutine, workers (providers)
// execute work on a goroutine of their own while they have any, and a sharded
// mediation engine allocates queries in parallel. This is the embedding a
// downstream system would use in production; internal/lab drives the same
// engine under a virtual clock for the experiments.
//
// # One engine, one pipeline
//
// Engine (NewEngine, functional options) is the only front. Submit stamps the
// query and returns a *Ticket immediately; each shard drains a class-aware
// queue, so one consumer's tickets mediate in submission order while distinct
// consumers run in parallel. SubmitWait, for a caller that waits for the
// allocation next, mediates on the caller's goroutine when the shard has
// nothing queued and nothing in service, and queues like Submit otherwise;
// order is the same either way. Neither may be waited on from an observer
// callback. Workers deliver their results to the query's ticket, which retains
// them and forwards them to a caller-supplied channel (WithResults); an
// event.Observer (WithObserver) streams allocations, rejections, dispatch
// failures, registration churn, and satisfaction snapshots; Engine.Stats
// snapshots per-shard counters. Engine.Mediate is the one synchronous way into
// a shard: the same per-query mediation a ticket gets, without queueing or
// dispatch, for harnesses that simulate execution themselves.
//
// # Engine architecture
//
// The engine runs N mediator shards (WithConcurrency). Each shard owns one
// single-threaded mediator.Mediator guarded by its own mutex; queries
// route to shards by a hash of their ConsumerID, so one consumer's stream
// is always serialized (its satisfaction window stays an ordered history)
// while different consumers mediate in parallel. All shards share:
//
//   - one directory.Directory — the indexed provider/consumer catalog, so a
//     worker registered once is a candidate on every shard;
//   - one lock-striped satisfaction.Registry — the adaptive ω of Equation 2
//     reads cross-shard satisfaction without a global lock.
//
// With one shard the engine's output is byte-identical to driving a plain
// mediator.Mediator with the same inputs (the determinism tests assert
// this for tickets and for Mediate).
//
// Time is real (wall-clock) here; capacities are in work units per second of
// real time, usually scaled down in tests. Deterministic tests inject a
// fake clock via WithClock.
package live

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"sbqa/internal/model"
)

// Result is one completed query execution delivered to the consumer.
type Result struct {
	Query    model.Query
	Provider model.ProviderID
	Latency  time.Duration
}

// Executor is the engine's dispatch contract: a registered provider the
// engine hands accepted queries to. *Worker implements it, and so does any
// type embedding *Worker — which is how embedders decorate a local executor
// with extra mediator-facing behaviour (the sbqad gateway's webhook-backed
// workers embed a *Worker and add the context-aware intention method, so
// they mediate remotely but execute locally). The accept hand-off takes the
// query's ticket — whoever accepts owes that ticket exactly one deliver or
// abandon call — and is engine-internal, so Executor can only be satisfied
// through the worker machinery; providers registered without it still
// participate in mediation but are delivered to out of band.
type Executor interface {
	ProviderID() model.ProviderID
	QueueDepth() int
	accept(ctx context.Context, t *Ticket) bool
}

// Worker executes queries at a fixed capacity, serially and in acceptance
// order, on a goroutine that exists only while it has work: an idle worker
// holds no goroutine, and a registered worker that is never allocated costs
// its struct alone. It implements mediator.Provider; all mediator-facing
// reads are mutex-guarded because mediations and executions run on
// different goroutines (and, in the sharded engine, on different shards at
// once).
type Worker struct {
	id       model.ProviderID
	capacity float64 // work units per second (real time)

	// IntentionFn maps a query to this worker's intention; required.
	intentionFn func(q model.Query) model.Intention
	// classes restricts the query classes this worker performs; nil means
	// any class. Set before registration via SetClasses.
	classes []int

	mu          sync.Mutex
	pendingWork float64
	queueLen    int  // tasks at the worker, the one in service included
	shutdown    bool // set under mu by Close; gates accept
	running     bool // a run goroutine is serving the ring
	// ring is the FIFO of waiting tasks, queued of them from head. It is nil
	// until the first accept, then doubles up to queueCap and is reused.
	ring                   []task
	head, queued, queueCap int
	serve                  func()      // w.run, bound once: a go statement on it allocates nothing
	timer                  *time.Timer // made by the first run and kept; armed under mu
}

// task is one accepted query: the ticket it is owed to and the hand-off
// time its latency is measured from.
type task struct {
	ticket *Ticket
	start  time.Time
}

// NewWorker returns an idle worker; it starts nothing until a task arrives.
// capacity must be > 0; queueCap bounds the tasks waiting behind the one in
// service (0 means 1024).
func NewWorker(id model.ProviderID, capacity float64, queueCap int, intentionFn func(model.Query) model.Intention) (*Worker, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("live: worker %d capacity %v must be positive", id, capacity)
	}
	if intentionFn == nil {
		return nil, fmt.Errorf("live: worker %d needs an intention function", id)
	}
	if queueCap <= 0 {
		queueCap = 1024
	}
	w := &Worker{id: id, capacity: capacity, intentionFn: intentionFn, queueCap: queueCap}
	w.serve = w.run
	return w, nil
}

// run serves the ring in order until it is empty, simulating each service
// time by sleeping work/capacity seconds of real time on the worker's one
// timer, then clears the running flag under mu and exits; the next accept
// starts a new run. After Close, the in-service task and everything still
// queued are abandoned on their tickets, so no ticket waits on work that
// will not happen.
func (w *Worker) run() {
	for {
		w.mu.Lock()
		if w.queued == 0 {
			if w.shutdown {
				w.pendingWork, w.queueLen = 0, 0
			}
			w.running = false
			w.mu.Unlock()
			return
		}
		t := w.ring[w.head]
		w.ring[w.head] = task{} // the ring must not keep a finished ticket alive
		w.head = (w.head + 1) % len(w.ring)
		w.queued--
		if w.shutdown {
			w.mu.Unlock()
			t.ticket.abandon()
			continue
		}
		q := t.ticket.query
		service := time.Duration(math.MaxInt64) // saturated: a larger float converts implementation-defined
		if s := q.Work / w.capacity * float64(time.Second); s < math.MaxInt64 {
			service = time.Duration(s)
		}
		// Armed under mu, so a Close from here on fires it at once.
		if w.timer == nil {
			w.timer = time.NewTimer(service)
		} else {
			w.timer.Reset(service)
		}
		w.mu.Unlock()
		<-w.timer.C
		w.mu.Lock()
		if w.shutdown {
			w.mu.Unlock()
			t.ticket.abandon()
			continue
		}
		w.pendingWork = max(w.pendingWork-q.Work, 0)
		w.queueLen--
		w.mu.Unlock()
		t.ticket.deliver(Result{Query: q, Provider: w.id, Latency: time.Since(t.start)})
	}
}

// accept enqueues a task without blocking: false if the worker is shutting
// down, the queue is full, or the context is already done. Dispatch must
// never park a mediation shard behind one saturated worker, so a full
// queue refuses the hand-off immediately (the engine reports ErrDispatch)
// rather than waiting for space. The enqueue happens under the worker mutex
// against the shutdown flag, so a task is either refused or guaranteed to
// be delivered-or-abandoned by a run — never silently lost; a run is
// started here when none is serving the ring.
func (w *Worker) accept(ctx context.Context, t *Ticket) bool {
	if ctx.Err() != nil {
		return false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.shutdown {
		return false
	}
	if w.queued == len(w.ring) {
		if w.queued == w.queueCap {
			return false
		}
		grown := make([]task, min(max(2*len(w.ring), 1), w.queueCap))
		copy(grown[copy(grown, w.ring[w.head:]):], w.ring[:w.head])
		w.ring, w.head = grown, 0
	}
	w.ring[(w.head+w.queued)%len(w.ring)] = task{ticket: t, start: time.Now()}
	w.queued++
	w.pendingWork += t.query.Work
	w.queueLen++
	if !w.running {
		w.running = true
		go w.serve()
	}
	return true
}

// Close stops the worker. Queued tasks are abandoned: their Results never
// arrive, and their tickets are told so, completing instead of waiting
// forever. A service in progress is cut short by firing its timer now.
func (w *Worker) Close() {
	w.mu.Lock()
	if !w.shutdown && w.running && w.timer != nil {
		w.timer.Reset(0)
	}
	w.shutdown = true
	w.mu.Unlock()
}

// ProviderID implements mediator.Provider.
func (w *Worker) ProviderID() model.ProviderID { return w.id }

// QueueDepth reports the number of tasks currently queued at the worker,
// including the one in service, if any.
func (w *Worker) QueueDepth() int {
	w.mu.Lock()
	n := w.queueLen
	w.mu.Unlock()
	return n
}

// Snapshot implements mediator.Provider.
func (w *Worker) Snapshot(float64) model.ProviderSnapshot {
	w.mu.Lock()
	defer w.mu.Unlock()
	drain := w.pendingWork / w.capacity
	util := drain / 10 // 10 s backlog = saturated
	if util > 1 {
		util = 1
	}
	return model.ProviderSnapshot{
		ID:          w.id,
		Utilization: util,
		QueueLen:    w.queueLen,
		Capacity:    w.capacity,
		PendingWork: w.pendingWork,
	}
}

// Capabilities implements directory.CapabilityReporter: a class-restricted
// worker is indexed under its classes, and that index is all of P_q — it is
// never a candidate for another class. Nil (unrestricted) workers are
// universal.
func (w *Worker) Capabilities() []int { return w.classes }

// SetClasses restricts the worker to the given query classes; calling it
// with no arguments removes the restriction. It MUST be called before the
// worker is registered and never afterwards: the directory indexes
// capabilities once at registration time, so a registered worker's
// restriction never changes. To change classes, unregister the worker and
// register a fresh one.
func (w *Worker) SetClasses(classes ...int) {
	if len(classes) == 0 {
		w.classes = nil
		return
	}
	w.classes = append([]int(nil), classes...)
}

// Intention implements mediator.Provider.
func (w *Worker) Intention(q model.Query) model.Intention { return w.intentionFn(q) }

// Bid implements mediator.Provider.
func (w *Worker) Bid(q model.Query) float64 {
	w.mu.Lock()
	pending := w.pendingWork
	w.mu.Unlock()
	return (pending + q.Work) / w.capacity
}

// FuncConsumer adapts an intention function to mediator.Consumer.
type FuncConsumer struct {
	ID model.ConsumerID
	Fn func(q model.Query, snap model.ProviderSnapshot) model.Intention
}

// ConsumerID implements mediator.Consumer.
func (c FuncConsumer) ConsumerID() model.ConsumerID { return c.ID }

// Intention implements mediator.Consumer.
func (c FuncConsumer) Intention(q model.Query, snap model.ProviderSnapshot) model.Intention {
	if c.Fn == nil {
		return 0
	}
	return c.Fn(q, snap)
}
