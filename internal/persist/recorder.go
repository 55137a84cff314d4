package persist

import (
	"errors"
	"sync"
	"sync/atomic"

	"sbqa/internal/event"
	"sbqa/internal/mediator"
	"sbqa/internal/model"
)

// Recorder feeds the journal asynchronously off the engine's typed event
// stream: observer callbacks (which run on the mediating goroutines, often
// under a shard lock) copy the event into a bounded queue and return; a
// single writer goroutine drains the queue into Store.Append. When the
// queue is full the event is dropped and counted — persistence lag can lose
// durability, never throughput.
//
// The recorder journals exactly the events that mutate durable adaptation
// state: mediation outcomes (successful allocations AND the rejections the
// registry records — no-candidates and stale-selection failures accrue
// consumer dissatisfaction and must survive a restart too), participant
// departures (satisfaction memory forgotten), and accepted policy changes.
// Every event, journaled or not, is then passed on to the embedded
// Observer — the next link of the engine's observer chain.
type Recorder struct {
	event.Observer

	store *Store
	ch    chan recorderItem

	// policyFn resolves the full active policy spec (as JSON) when an
	// OnPolicyChange event fires: the event itself carries only the
	// generation, name, and kind. Set by the engine before traffic.
	policyFn func() (gen uint64, specJSON []byte, ok bool)

	mu      sync.RWMutex // guards closed/started vs in-flight enqueues
	closed  bool
	started bool

	dropped   atomic.Uint64
	appendErr atomic.Uint64

	abort atomic.Bool
	done  chan struct{}
}

// recorderItem is one queue entry: a record to append, or a flush request
// (sync the journal, then acknowledge).
type recorderItem struct {
	rec   *Record
	flush chan struct{}
}

// recordPool recycles Record structs (and, through append-into-place, their
// outcome slices) between the observer hot path and the writer goroutine:
// an engine emitting tens of thousands of outcomes per second would
// otherwise allocate five slices per mediation just to journal it.
var recordPool = sync.Pool{New: func() any { return new(Record) }}

// getRecord fetches a pooled record reset to type t with its slice
// capacities intact.
func getRecord(t RecordType) *Record {
	rec := recordPool.Get().(*Record)
	rec.reset(t)
	return rec
}

// putRecord returns a record to the pool (PolicyJSON blobs are not pooled —
// the journal writer has already consumed them).
func putRecord(rec *Record) {
	rec.PolicyJSON = nil
	recordPool.Put(rec)
}

// NewRecorder builds the store's recorder WITHOUT starting its writer: the
// recorder can join an observer chain before Restore has run, buffering
// whatever it observes. It passes every event on to next, which must not be
// nil (event.Discard ignores them). Call Start once Restore completes
// (the store only accepts appends from then on); close with Close before
// closing the store.
func (s *Store) NewRecorder(next event.Observer) *Recorder {
	return &Recorder{
		Observer: next,
		store:    s,
		ch:       make(chan recorderItem, s.cfg.QueueDepth),
		done:     make(chan struct{}),
	}
}

// Start launches the writer goroutine. Must follow Store.Restore; no-op if
// already started or closed.
func (r *Recorder) Start() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.started || r.closed {
		return
	}
	r.started = true
	go r.run()
}

// SetPolicySource installs the resolver the recorder consults when a policy
// change fires. Must be set before traffic (the engine does this during
// construction).
func (r *Recorder) SetPolicySource(fn func() (gen uint64, specJSON []byte, ok bool)) {
	r.policyFn = fn
}

// maxRecorderBatch caps how many queued records one writer wakeup journals
// in a single Store.AppendBatch call — large enough to amortize the store
// mutex across a busy engine's burst, small enough to bound flush-ack
// latency and keep pooled records circulating.
const maxRecorderBatch = 256

// run is the writer goroutine: queue → journal. Each blocking receive is
// followed by a non-blocking drain of whatever burst accumulated behind it,
// so a saturated engine pays one store-mutex round trip (and at most one
// fsync-cadence check) per burst rather than per record. Flush requests
// found in a burst are acknowledged after the whole burst is appended and
// synced — strictly stronger than the Drain contract, which only covers
// records enqueued before the flush.
func (r *Recorder) run() {
	defer close(r.done)
	batch := make([]*Record, 0, maxRecorderBatch)
	var flushes []chan struct{}
	open := true
	for open {
		item, ok := <-r.ch
		if !ok {
			break
		}
		batch, flushes = batch[:0], flushes[:0]
		if item.rec != nil {
			batch = append(batch, item.rec)
		}
		if item.flush != nil {
			flushes = append(flushes, item.flush)
		}
	drain:
		for len(batch) < maxRecorderBatch {
			select {
			case next, ok := <-r.ch:
				if !ok {
					open = false
					break drain
				}
				if next.rec != nil {
					batch = append(batch, next.rec)
				}
				if next.flush != nil {
					flushes = append(flushes, next.flush)
				}
			default:
				break drain
			}
		}
		if len(batch) > 0 {
			if failed := r.store.AppendBatch(batch); failed > 0 {
				r.appendErr.Add(uint64(failed))
			}
			for _, rec := range batch {
				putRecord(rec)
			}
		}
		for _, ack := range flushes {
			_ = r.store.Sync()
			close(ack)
		}
	}
	if !r.abort.Load() {
		_ = r.store.Sync()
	}
}

// offer enqueues one record without ever blocking; full queue → drop+count.
// Dropped records go back to the pool immediately.
func (r *Recorder) offer(rec *Record) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed {
		r.dropped.Add(1)
		putRecord(rec)
		return
	}
	select {
	case r.ch <- recorderItem{rec: rec}:
	default:
		r.dropped.Add(1)
		putRecord(rec)
	}
}

// Drain blocks until every record enqueued before the call is appended and
// the journal is synced. No-op after Close or before Start.
func (r *Recorder) Drain() {
	r.mu.RLock()
	if r.closed || !r.started {
		r.mu.RUnlock()
		return
	}
	ack := make(chan struct{})
	r.ch <- recorderItem{flush: ack}
	r.mu.RUnlock()
	<-ack
}

// Close stops the recorder: the queue is drained, the journal synced, and
// subsequent events are dropped (counted). Safe to call on a never-started
// recorder (engine construction error paths). Idempotent.
func (r *Recorder) Close() {
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		close(r.ch)
		if !r.started {
			// The writer never ran; release every buffered record and
			// complete the done signal ourselves.
			for item := range r.ch {
				if item.rec != nil {
					putRecord(item.rec)
				}
			}
			close(r.done)
		}
	}
	r.mu.Unlock()
	<-r.done
}

// CloseAbrupt stops the recorder WITHOUT the final sync — the
// crash-emulation path: whatever the writer buffered since the last sync
// is lost when the store is then Abort()ed.
func (r *Recorder) CloseAbrupt() {
	r.abort.Store(true)
	r.Close()
}

// recorderStats fills the recorder-owned half of Stats.
func (r *Recorder) recorderStats(st *Stats) {
	st.RecordsDropped = r.dropped.Load()
	st.AppendErrors = r.appendErr.Load()
	st.QueueDepth = len(r.ch)
}

// Stats assembles the full persistence counter snapshot.
func (r *Recorder) Stats() Stats {
	var st Stats
	r.store.storeStats(&st)
	r.recorderStats(&st)
	return st
}

// OnAllocation implements event.Observer: journal one successful mediation.
// The allocation's slices are copied — the observer contract forbids
// retaining them past the call.
func (r *Recorder) OnAllocation(a *model.Allocation, candidates int) {
	rec := getRecord(RecordOutcome)
	o := &rec.Outcome
	o.QueryID = int64(a.Query.ID)
	o.Consumer = a.Query.Consumer
	o.N = a.Query.N
	o.Proposed = append(o.Proposed, a.Proposed...)
	for i, p := range a.Proposed {
		var ci, pi model.Intention
		if i < len(a.ConsumerIntentions) {
			ci = a.ConsumerIntentions[i]
		}
		if i < len(a.ProviderIntentions) {
			pi = a.ProviderIntentions[i]
		}
		o.CI = append(o.CI, ci)
		o.PI = append(o.PI, pi)
		o.Selected = append(o.Selected, a.SelectedContains(p))
	}
	r.offer(rec)
	r.Observer.OnAllocation(a, candidates)
}

// OnRejection implements event.Observer: the registry records capacity
// failures (no candidates, stale selection) as zero-satisfaction outcomes
// for the consumer, so those — and only those — are journaled. Validation
// and context-cancellation rejections record nothing live and are skipped.
func (r *Recorder) OnRejection(q model.Query, reason error) {
	if errors.Is(reason, mediator.ErrNoCandidates) || errors.Is(reason, mediator.ErrStaleSelection) {
		rec := getRecord(RecordOutcome)
		rec.Outcome.QueryID = int64(q.ID)
		rec.Outcome.Consumer = q.Consumer
		rec.Outcome.N = q.N
		r.offer(rec)
	}
	r.Observer.OnRejection(q, reason)
}

// OnConsumerDeparted implements event.Observer.
func (r *Recorder) OnConsumerDeparted(id model.ConsumerID) {
	rec := getRecord(RecordForgetConsumer)
	rec.Forget = int64(id)
	r.offer(rec)
	r.Observer.OnConsumerDeparted(id)
}

// OnProviderDeparted implements event.Observer.
func (r *Recorder) OnProviderDeparted(id model.ProviderID) {
	rec := getRecord(RecordForgetProvider)
	rec.Forget = int64(id)
	r.offer(rec)
	r.Observer.OnProviderDeparted(id)
}

// OnPolicyChange implements event.Observer: the accepted generation is
// journaled with the full spec JSON resolved through the policy source.
func (r *Recorder) OnPolicyChange(pc event.PolicyChange) {
	if r.policyFn != nil {
		if gen, specJSON, ok := r.policyFn(); ok {
			rec := getRecord(RecordPolicyChange)
			rec.PolicyGeneration = max(gen, pc.Generation)
			rec.PolicyJSON = specJSON
			r.offer(rec)
		}
	}
	r.Observer.OnPolicyChange(pc)
}

var _ event.Observer = (*Recorder)(nil)
