package mediator

import (
	"context"
	"fmt"
	"sync"
	"time"

	"sbqa/internal/alloc"
	"sbqa/internal/event"
	"sbqa/internal/model"
	"sbqa/internal/trace"
)

// This file implements the default adapter behind the batched intention
// protocol (alloc.Env): the mediator's env fans one batch out over the
// registered participants. In-process participants — anything implementing
// only the synchronous directory contracts — are called inline, in candidate
// order, so single-shard runs stay byte-identical to the historical
// pipeline. Participants that additionally implement one of the context-
// aware interfaces below (typically network-backed: the sbqad gateway's
// webhook participants) are contacted concurrently, each bounded by
// Config.ParticipantDeadline; a participant that stays silent past its
// deadline (or fails) has its intention imputed from its satisfaction
// registry state instead of stalling the mediation — the paper's autonomy
// assumption made operational.

// ConsumerParticipant is the optional context-aware extension of Consumer
// for autonomous consumers the mediator reaches over a network. When a
// registered consumer implements it, the mediator collects CI_q over the
// whole candidate batch with a single call instead of looping over the
// synchronous Intention method.
//
// The returned slice must be position-aligned with kn; any other length is
// treated as a failed collection and the whole CI vector is imputed. The
// call runs on its own goroutine and must honor ctx — a call that outlives
// ctx is abandoned (its goroutine leaks until the implementation returns, so
// implementations should not block indefinitely).
type ConsumerParticipant interface {
	Intentions(ctx context.Context, q model.Query, kn []model.ProviderSnapshot) ([]model.Intention, error)
}

// ProviderParticipant is the optional context-aware extension of Provider
// for autonomous providers the mediator reaches over a network: PI_q is
// gathered through IntentionContext instead of the synchronous Intention
// method, concurrently with every other participant of the batch. The same
// deadline and abandonment rules as ConsumerParticipant apply.
type ProviderParticipant interface {
	IntentionContext(ctx context.Context, q model.Query) (model.Intention, error)
}

// callWithDeadline invokes one participant call on its own goroutine,
// bounded by the per-participant deadline d (0 = no bound beyond ctx). The
// select guarantees the mediation never waits past the deadline even when
// the participant ignores ctx entirely; the abandoned call's goroutine
// finishes in the background.
func callWithDeadline[T any](ctx context.Context, d time.Duration, f func(ctx context.Context) (T, error)) (T, error) {
	if d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	type outcome struct {
		v   T
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		v, err := f(ctx)
		ch <- outcome{v: v, err: err}
	}()
	select {
	case r := <-ch:
		return r.v, r.err
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	}
}

// imputedProviderIntention derives a silent provider's stand-in intention
// from its registry state: δa(p), the mean unit intention the provider has
// expressed over its remembered proposals, mapped back from [0, 1] to
// [-1, 1]. A cold or unknown provider imputes to neutral 0.
func (m *Mediator) imputedProviderIntention(id model.ProviderID) model.Intention {
	return model.Intention(2*m.registry.ProviderAdequation(id) - 1).Clamp()
}

// imputedConsumerIntention derives a silent consumer's stand-in intention
// from its registry state: δa(c), the mean unit intention the consumer has
// expressed toward its remembered candidate sets, mapped back to [-1, 1].
func (m *Mediator) imputedConsumerIntention(c model.ConsumerID) model.Intention {
	return model.Intention(2*m.registry.ConsumerAdequation(c) - 1).Clamp()
}

// Intentions implements the batched protocol (alloc.Env) and reports
// every imputation to the configured observer, in candidate order (the
// consumer's event first), on the mediating goroutine.
func (e env) Intentions(ctx context.Context, q model.Query, kn []model.ProviderSnapshot) (alloc.IntentionSet, error) {
	if !q.Trace.Sampled {
		set, err := e.collect(ctx, q, kn, true)
		if err != nil {
			return set, err
		}
		e.m.emitImputations(q, kn, &set)
		return set, nil
	}
	// Sampled: bracket the collection and the imputation report with their
	// stage spans, and stash the end time so the mediator's score span can
	// subtract the fan-out from the allocator's wall time.
	fanStart := trace.Now()
	set, err := e.collect(ctx, q, kn, true)
	fanEnd := trace.Now()
	e.m.tracer.RecordSpan(q.Trace.ID, trace.Span{
		Name:  trace.StageFanout,
		Start: fanStart,
		End:   fanEnd,
		Extra: int64(len(kn)),
	})
	if err != nil {
		e.m.lastFanoutEnd = fanEnd
		return set, err
	}
	e.m.emitImputations(q, kn, &set)
	impEnd := trace.Now()
	e.m.tracer.RecordSpan(q.Trace.ID, trace.Span{
		Name:  trace.StageImpute,
		Start: fanEnd,
		End:   impEnd,
		Extra: int64(set.ImputedCount()),
	})
	e.m.lastFanoutEnd = impEnd
	return set, nil
}

// intentionScratch resizes *buf to n zeroed intentions, reallocating only
// when capacity is exceeded, and returns the (stored-back) buffer.
func intentionScratch(buf *[]model.Intention, n int) []model.Intention {
	b := *buf
	if cap(b) < n {
		b = make([]model.Intention, n)
	} else {
		b = b[:n]
		clear(b)
	}
	*buf = b
	return b
}

// collect gathers the consumer's and (when withPI) every candidate
// provider's intentions for q over the batch kn. Context-aware participants
// fan out concurrently with per-participant deadlines and imputation;
// in-process participants are called inline in candidate order. A non-nil
// error is returned only when ctx itself is done — individual silent
// participants never fail the batch.
//
// The returned set's CI and PI vectors alias the mediator's per-shard scratch
// (ciBuf/piBuf): they are valid until the next collect on this shard, and
// every consumer of the set — the allocator's build loop, the backfill copy,
// the registry's synchronous recording — copies or consumes them before that.
//
// The all-in-process batch (no context-aware participant anywhere — the
// common hot path) runs closure-free: the goroutine-spawning fan-out lives in
// collectFanout so that escape analysis keeps the set header and the
// synchronization state off the heap here.
func (e env) collect(ctx context.Context, q model.Query, kn []model.ProviderSnapshot, withPI bool) (alloc.IntentionSet, error) {
	if err := ctx.Err(); err != nil {
		return alloc.IntentionSet{}, err
	}
	var provs []Provider // nil without the PI round
	if withPI {
		provs = e.m.resolve(kn)
	}
	if e.needsFanout(provs) {
		return e.collectFanout(ctx, q, kn, provs, withPI)
	}
	set := alloc.IntentionSet{CI: intentionScratch(&e.m.ciBuf, len(kn))}
	if withPI {
		set.PI = intentionScratch(&e.m.piBuf, len(kn))
		for i, prov := range provs {
			// A nil provider unregistered between discovery and collection
			// (shared directory churn): zero intention; the backfill drops
			// them from the allocation entirely.
			if prov != nil {
				set.PI[i] = prov.Intention(q)
			}
		}
	}
	if e.consumer != nil {
		for i, snap := range kn {
			set.CI[i] = e.consumer.Intention(q, snap)
		}
	}
	if err := ctx.Err(); err != nil {
		return alloc.IntentionSet{}, err
	}
	return set, nil
}

// needsFanout reports whether any participant of the batch is context-aware
// (network-backed), requiring the concurrent fan-out path. provs is the
// batch's resolved providers, nil when no provider is asked.
func (e env) needsFanout(provs []Provider) bool {
	if _, ok := e.consumer.(ConsumerParticipant); ok {
		return true
	}
	for _, prov := range provs {
		if _, ok := prov.(ProviderParticipant); ok {
			return true
		}
	}
	return false
}

// collectFanout is the concurrent arm of collect: at least one participant is
// context-aware, so the batch fans out with per-participant deadlines and
// imputation. Heap traffic here is acceptable — this path already pays a
// network round trip per participant.
func (e env) collectFanout(ctx context.Context, q model.Query, kn []model.ProviderSnapshot, provs []Provider, withPI bool) (alloc.IntentionSet, error) {
	set := alloc.IntentionSet{CI: intentionScratch(&e.m.ciBuf, len(kn))}
	deadline := e.m.cfg.ParticipantDeadline
	var wg sync.WaitGroup
	var mu sync.Mutex // guards the set's lazily-allocated provenance slices

	if withPI {
		set.PI = intentionScratch(&e.m.piBuf, len(kn))
		for i, snap := range kn {
			prov := provs[i]
			if prov == nil {
				// Unregistered between discovery and collection (shared
				// directory churn): zero intention; the backfill drops them
				// from the allocation entirely.
				continue
			}
			if pp, ok := prov.(ProviderParticipant); ok {
				wg.Add(1)
				go func(i int, id model.ProviderID, pp ProviderParticipant) {
					defer wg.Done()
					var pStart int64
					if q.Trace.Sampled {
						pStart = trace.Now()
					}
					v, err := callWithDeadline(ctx, deadline, func(ctx context.Context) (model.Intention, error) {
						return pp.IntentionContext(ctx, q)
					})
					if q.Trace.Sampled {
						// Recorder appends are mutex-guarded and wg.Wait
						// below orders every append before the trace can
						// finish.
						e.m.tracer.RecordSpan(q.Trace.ID, trace.Span{
							Name:  trace.StageParticipant,
							Class: "provider",
							Start: pStart,
							End:   trace.Now(),
							Extra: int64(id),
						})
					}
					if err != nil {
						v = e.m.imputedProviderIntention(id)
						mu.Lock()
						set.MarkProviderImputed(i, err)
						mu.Unlock()
					}
					set.PI[i] = v
				}(i, snap.ID, pp)
				continue
			}
			set.PI[i] = prov.Intention(q)
		}
	}

	if cp, ok := e.consumer.(ConsumerParticipant); ok {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cStart int64
			if q.Trace.Sampled {
				cStart = trace.Now()
			}
			vals, err := callWithDeadline(ctx, deadline, func(ctx context.Context) ([]model.Intention, error) {
				return cp.Intentions(ctx, q, kn)
			})
			if q.Trace.Sampled {
				e.m.tracer.RecordSpan(q.Trace.ID, trace.Span{
					Name:  trace.StageParticipant,
					Class: "consumer",
					Start: cStart,
					End:   trace.Now(),
					Extra: int64(q.Consumer),
				})
			}
			if err == nil && len(vals) != len(kn) {
				err = fmt.Errorf("mediator: consumer %d returned %d intentions for %d candidates",
					q.Consumer, len(vals), len(kn))
			}
			if err != nil {
				imputed := e.m.imputedConsumerIntention(q.Consumer)
				for i := range set.CI {
					set.CI[i] = imputed
				}
				set.CIImputed = true
				set.CIErr = err
				return
			}
			copy(set.CI, vals)
		}()
	} else if e.consumer != nil {
		for i, snap := range kn {
			set.CI[i] = e.consumer.Intention(q, snap)
		}
	}

	wg.Wait()
	if err := ctx.Err(); err != nil {
		// The mediation itself was canceled: abort rather than score a
		// batch of wholesale-imputed values.
		return alloc.IntentionSet{}, err
	}
	return set, nil
}

// emitImputations reports every imputed batch position to the configured
// observer.
func (m *Mediator) emitImputations(q model.Query, kn []model.ProviderSnapshot, set *alloc.IntentionSet) {
	obs := m.cfg.Observer
	if set.CIImputed && set.Len() > 0 {
		obs.OnIntentionImputed(event.Imputation{
			Query:    q,
			Provider: model.NoProvider,
			Consumer: q.Consumer,
			Err:      set.CIErr,
			Imputed:  set.CI[0],
		})
	}
	for i := range kn {
		if set.ProviderImputed(i) {
			obs.OnIntentionImputed(event.Imputation{
				Query:    q,
				Provider: kn[i].ID,
				Consumer: q.Consumer,
				Err:      set.PIErr[i],
				Imputed:  set.PI[i],
			})
		}
	}
}

// Bids implements the batched protocol (alloc.Env): the economic
// baseline's bidding round. A departed bidder's bid is imputed as its
// expected completion delay (no observer event — bids are prices, not
// intentions).
func (e env) Bids(ctx context.Context, q model.Query, kn []model.ProviderSnapshot) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Per-shard scratch: every position is written below, and the economic
	// allocator copies the bids it keeps before ranking.
	if cap(e.m.bidBuf) < len(kn) {
		e.m.bidBuf = make([]float64, len(kn))
	}
	bids := e.m.bidBuf[:len(kn)]
	for i, snap := range kn {
		if prov := e.m.candidateOf(snap.ID); prov != nil {
			bids[i] = prov.Bid(q)
		} else {
			bids[i] = snap.ExpectedDelay(q.Work)
		}
	}
	return bids, nil
}

// AppendProviderSatisfactions implements the batched protocol (alloc.Env)
// from the shared satisfaction registry, appending into the allocator's own
// scratch column.
func (e env) AppendProviderSatisfactions(kn []model.ProviderSnapshot, dst []float64) []float64 {
	for _, snap := range kn {
		dst = append(dst, e.m.registry.ProviderSatisfaction(snap.ID))
	}
	return dst
}

var _ alloc.Env = env{}
var _ alloc.ShareEnv = env{}
