package satisfaction

import (
	"maps"
	"sync"
	"sync/atomic"

	"sbqa/internal/model"
)

// shardCount is the number of lock stripes per participant kind. Sixteen
// stripes keep contention negligible for the live engine's shard counts
// (queries route by consumer, so consumer stripes see at most one writer per
// engine shard) while the per-registry footprint stays small.
const shardCount = 16

// shardOf spreads participant IDs over the stripes. IDs are dense small
// integers, so a Fibonacci-style multiplicative hash keeps adjacent IDs on
// different stripes without any modulo bias.
func shardOf(id int64) int {
	return int((uint64(id) * 0x9E3779B97F4A7C15) >> 60)
}

type consumerShard struct {
	mu sync.RWMutex
	m  map[model.ConsumerID]*ConsumerTracker
}

type providerShard struct {
	mu sync.RWMutex
	m  map[model.ProviderID]*ProviderTracker

	// read is ProviderSatisfaction's lock-free copy of m: an immutable map
	// published through an atomic pointer. It may lack trackers created
	// since it was built, but never holds one that was forgotten or
	// replaced: ForgetProvider and ImportProvider set it to nil. A lookup it
	// misses falls back to m under the read lock, and counts a miss when m
	// has the tracker; once the misses outnumber the stripe's trackers, that
	// lookup rebuilds the copy, so creating trackers costs O(1) amortized
	// however large the stripe is. Recording into an existing tracker leaves
	// the copy standing: the tracker publishes its own δs.
	read   atomic.Pointer[map[model.ProviderID]*ProviderTracker]
	misses atomic.Int64
}

// tracker returns p's tracker, or nil, without locking when the lock-free
// copy holds it.
func (sh *providerShard) tracker(p model.ProviderID) *ProviderTracker {
	read := sh.read.Load()
	if read != nil {
		if t, ok := (*read)[p]; ok {
			return t
		}
	}
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	t := sh.m[p]
	if read == nil || t != nil && sh.misses.Add(1) > int64(len(sh.m)) {
		// Rebuilt under the read lock, the copy is never older than the last
		// write; readers that rebuild at once publish equal copies.
		m := maps.Clone(sh.m)
		sh.read.Store(&m)
		sh.misses.Store(0)
	}
	return t
}

// Registry holds the satisfaction trackers of every participant known to a
// mediator. The mediator records every mediation outcome here, and the SbQA
// allocator reads δs(c) and δs(p) from it to compute the adaptive balance ω
// of Equation 2.
//
// Registry is safe for concurrent use: the tracker maps are lock-striped by
// participant ID, so the engine's mediator shards record and read in
// parallel with contention only when two shards touch the same stripe. All
// mutation done *through the registry* (RecordAllocation, Forget*, Import*)
// happens under the owning stripe's lock. ProviderSatisfaction, read once
// per Kn member of every mediation, takes no lock at all (see
// providerShard.read).
//
// The trackers returned by Consumer and Provider are NOT themselves
// synchronized: they hand out direct access for the single-threaded
// embeddings (the event-driven simulator, the experiment harness). Callers
// that mediate concurrently must stick to the registry-level methods and
// must not mutate a tracker obtained this way while mediations are in
// flight.
type Registry struct {
	k         int
	consumers [shardCount]consumerShard
	providers [shardCount]providerShard
}

// NewRegistry returns a registry creating trackers with window k on demand.
func NewRegistry(k int) *Registry {
	if k < 1 {
		k = DefaultWindow
	}
	r := &Registry{k: k}
	for i := range r.consumers {
		r.consumers[i].m = make(map[model.ConsumerID]*ConsumerTracker)
	}
	for i := range r.providers {
		r.providers[i].m = make(map[model.ProviderID]*ProviderTracker)
	}
	return r
}

// Window returns the memory length used for new trackers.
func (r *Registry) Window() int { return r.k }

func (r *Registry) cshard(c model.ConsumerID) *consumerShard {
	return &r.consumers[shardOf(int64(c))]
}

func (r *Registry) pshard(p model.ProviderID) *providerShard {
	return &r.providers[shardOf(int64(p))]
}

// Consumer returns (creating if needed) the tracker for consumer c. The
// returned tracker is unsynchronized; see the Registry doc.
func (r *Registry) Consumer(c model.ConsumerID) *ConsumerTracker {
	sh := r.cshard(c)
	sh.mu.Lock()
	t, ok := sh.m[c]
	if !ok {
		t = NewConsumer(r.k)
		sh.m[c] = t
	}
	sh.mu.Unlock()
	return t
}

// Provider returns (creating if needed) the tracker for provider p. The
// returned tracker is unsynchronized; see the Registry doc.
func (r *Registry) Provider(p model.ProviderID) *ProviderTracker {
	sh := r.pshard(p)
	sh.mu.Lock()
	t, ok := sh.m[p]
	if !ok {
		t = NewProvider(r.k)
		sh.m[p] = t
	}
	sh.mu.Unlock()
	return t
}

// ConsumerSatisfaction returns δs(c), Neutral for unknown consumers.
func (r *Registry) ConsumerSatisfaction(c model.ConsumerID) float64 {
	sh := r.cshard(c)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if t, ok := sh.m[c]; ok {
		return t.Satisfaction()
	}
	return Neutral
}

// ProviderSatisfaction returns δs(p), Neutral for unknown providers. For a
// provider the stripe's lock-free copy holds it takes no lock: a map lookup
// and the tracker's published δs, bit-identical to its Satisfaction() after
// its last record.
func (r *Registry) ProviderSatisfaction(p model.ProviderID) float64 {
	if t := r.pshard(p).tracker(p); t != nil {
		return t.published()
	}
	return Neutral
}

// ConsumerAdequation returns δa(c) — the mean unit intention consumer c has
// expressed toward the candidate sets of its remembered queries — Neutral for
// unknown consumers. The batched intention protocol imputes a silent
// consumer's CI_q from this value: the consumer's historical average interest
// stands in for the answer it did not give.
func (r *Registry) ConsumerAdequation(c model.ConsumerID) float64 {
	sh := r.cshard(c)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if t, ok := sh.m[c]; ok {
		return t.Adequation()
	}
	return Neutral
}

// ProviderAdequation returns δa(p) — the mean unit intention provider p has
// expressed over all remembered proposals — Neutral for unknown providers.
// The batched intention protocol imputes a silent provider's PI_q from this
// value.
func (r *Registry) ProviderAdequation(p model.ProviderID) float64 {
	sh := r.pshard(p)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if t, ok := sh.m[p]; ok {
		return t.Adequation()
	}
	return Neutral
}

// ForgetConsumer removes consumer c's tracker.
func (r *Registry) ForgetConsumer(c model.ConsumerID) {
	sh := r.cshard(c)
	sh.mu.Lock()
	delete(sh.m, c)
	sh.mu.Unlock()
}

// ForgetProvider removes provider p's tracker.
func (r *Registry) ForgetProvider(p model.ProviderID) {
	sh := r.pshard(p)
	sh.mu.Lock()
	if _, ok := sh.m[p]; ok {
		delete(sh.m, p)
		sh.read.Store(nil)
	}
	sh.mu.Unlock()
}

// ConsumerIDs returns the IDs of all tracked consumers (unspecified order).
func (r *Registry) ConsumerIDs() []model.ConsumerID {
	var out []model.ConsumerID
	for i := range r.consumers {
		sh := &r.consumers[i]
		sh.mu.RLock()
		for id := range sh.m {
			out = append(out, id)
		}
		sh.mu.RUnlock()
	}
	return out
}

// ProviderIDs returns the IDs of all tracked providers (unspecified order).
func (r *Registry) ProviderIDs() []model.ProviderID {
	var out []model.ProviderID
	for i := range r.providers {
		sh := &r.providers[i]
		sh.mu.RLock()
		for id := range sh.m {
			out = append(out, id)
		}
		sh.mu.RUnlock()
	}
	return out
}

// Reading is one tracked participant's δs, as a walk of the registry reads
// it.
type Reading[ID model.ConsumerID | model.ProviderID] struct {
	ID  ID
	Sat float64
}

// AppendConsumerReadings appends (c, δs(c)) for every tracked consumer to
// dst, in no particular order, and returns the extended slice. Each stripe's
// read lock is taken once, so a caller that keeps dst between walks reads the
// whole registry without allocating.
func (r *Registry) AppendConsumerReadings(dst []Reading[model.ConsumerID]) []Reading[model.ConsumerID] {
	for i := range r.consumers {
		dst = appendReadings(dst, &r.consumers[i].mu, r.consumers[i].m)
	}
	return dst
}

// AppendProviderReadings appends (p, δs(p)) for every tracked provider to
// dst; see AppendConsumerReadings.
func (r *Registry) AppendProviderReadings(dst []Reading[model.ProviderID]) []Reading[model.ProviderID] {
	for i := range r.providers {
		dst = appendReadings(dst, &r.providers[i].mu, r.providers[i].m)
	}
	return dst
}

// appendReadings appends the readings of one stripe under its read lock.
func appendReadings[ID model.ConsumerID | model.ProviderID, T interface{ Satisfaction() float64 }](dst []Reading[ID], mu *sync.RWMutex, m map[ID]T) []Reading[ID] {
	mu.RLock()
	for id, t := range m {
		dst = append(dst, Reading[ID]{ID: id, Sat: t.Satisfaction()})
	}
	mu.RUnlock()
	return dst
}

// recordProvider feeds one proposal outcome into provider p's tracker under
// its stripe lock.
func (r *Registry) recordProvider(p model.ProviderID, pi model.Intention, performed bool) {
	sh := r.pshard(p)
	sh.mu.Lock()
	t, ok := sh.m[p]
	if !ok {
		t = NewProvider(r.k)
		sh.m[p] = t
	}
	t.Record(pi, performed)
	sh.mu.Unlock()
}

// recordConsumer feeds one query outcome into consumer c's tracker under its
// stripe lock.
func (r *Registry) recordConsumer(c model.ConsumerID, n int, performed, candidates []model.Intention) {
	sh := r.cshard(c)
	sh.mu.Lock()
	t, ok := sh.m[c]
	if !ok {
		t = NewConsumer(r.k)
		sh.m[c] = t
	}
	t.RecordQuery(n, performed, candidates)
	sh.mu.Unlock()
}

// RecordAllocation feeds one mediation outcome into the trackers of the
// consumer and of every proposed provider. candidates holds CI_q[p] for the
// full candidate set P_q (used for the consumer's adequation and
// allocation-satisfaction analysis); it may be nil, in which case the
// proposed intentions stand in for it.
//
// Stripe locks are taken one participant at a time, never nested, so
// concurrent recorders cannot deadlock however their proposal sets overlap.
func (r *Registry) RecordAllocation(a *model.Allocation, candidates []model.Intention) {
	r.RecordAllocationInto(a, candidates, nil)
}

// RecordAllocationInto is RecordAllocation with a caller-provided scratch
// buffer for the performed-intentions vector: scratch is reused when it has
// capacity and the (possibly grown) buffer is returned for the next call.
// The buffer's contents are consumed before the call returns — no tracker
// retains it — so a single-threaded caller (one mediator shard) can recycle
// one buffer across every mediation.
func (r *Registry) RecordAllocationInto(a *model.Allocation, candidates, scratch []model.Intention) []model.Intention {
	performed := scratch[:0]
	for i, p := range a.Proposed {
		isSelected := a.SelectedContains(p)
		if isSelected && i < len(a.ConsumerIntentions) {
			performed = append(performed, a.ConsumerIntentions[i])
		}
		var pi model.Intention
		if i < len(a.ProviderIntentions) {
			pi = a.ProviderIntentions[i]
		}
		r.recordProvider(p, pi, isSelected)
	}
	if candidates == nil {
		candidates = a.ConsumerIntentions
	}
	r.recordConsumer(a.Query.Consumer, a.Query.N, performed, candidates)
	return performed
}
