// Package directory is the participant catalog of the SbQA system: it keeps
// the registries of online consumers and providers and answers candidate
// discovery — "which providers can perform query q?" (the set P_q of the
// paper) — through a capability index instead of a scan over every
// registered provider.
//
// The mediator historically owned these registries and rebuilt P_q per query
// by iterating all providers and asking each whether it could perform q.
// That is fine for a few hundred simulated volunteers, but it makes every
// mediation O(|P|) and it welds registration to a single mediator instance.
// Extracting the catalog gives two things at once:
//
//   - an index keyed on the query class: a provider declares the classes it
//     performs (CapabilityReporter) or is universal, so P_q is exactly the
//     class bucket — the class's specialists plus the universal providers —
//     and discovery is a lookup, not a scan;
//   - a concurrency-safe registry that several mediator shards can share,
//     which is what the sharded live engine is built on.
//
// Determinism: views and Candidates always list providers in ascending
// ProviderID order, whatever the registration order, so seeded allocators
// reproduce bit-for-bit (the experiment tables depend on this).
//
// The read path is lock-free. Discovery goes through View: an immutable
// snapshot of one class's index bucket (universal providers ∪ the class's
// specialists, as sorted {id, Provider} entries) published through an atomic
// pointer. A write — Register/UnregisterProvider — only edits the sorted
// entry lists under the mutex and marks the views it touched stale (the
// class's own, or every view when a universal provider changed); it never
// rebuilds one, so registration costs what it always did and bulk set-up
// stays linear. The first reader after a write rebuilds the view it needs,
// once, under the read lock, and republishes it; every reader until the next
// write then pays two atomic loads and no map lookup. The mediator samples
// positions out of a view and touches only the providers it drew, which is
// what makes mediation O(k) rather than O(|P_q|).
package directory

import (
	"sort"
	"sync"
	"sync/atomic"

	"sbqa/internal/event"
	"sbqa/internal/model"
)

// Consumer is the directory-side view of a consumer (the same contract the
// mediator consumes; the mediator package aliases this type).
type Consumer interface {
	// ConsumerID identifies the consumer.
	ConsumerID() model.ConsumerID

	// Intention returns CI_q[p]: the consumer's intention to see its
	// query q allocated to the provider described by snap.
	Intention(q model.Query, snap model.ProviderSnapshot) model.Intention
}

// Provider is the directory-side view of a provider (the same contract the
// mediator consumes; the mediator package aliases this type).
type Provider interface {
	// ProviderID identifies the provider.
	ProviderID() model.ProviderID

	// Snapshot reports the provider's allocation-relevant state at the
	// given simulation time.
	Snapshot(now float64) model.ProviderSnapshot

	// Intention returns PI_q[p]: the provider's intention to perform q.
	Intention(q model.Query) model.Intention

	// Bid returns the price the provider asks to perform q (economic
	// baseline).
	Bid(q model.Query) float64
}

// CapabilityReporter is an optional Provider extension declaring, up front,
// the query classes the provider can perform. The directory consults it once
// at registration time and files the provider under those classes; providers
// that do not implement it (or return an empty list) are treated as
// universal — able to perform queries of any class.
//
// The declaration is the whole of P_q membership: a provider in a query's
// class bucket is a candidate for it, and nothing asks it again per query.
// A provider that must turn down individual queries expresses that through
// its intention (PI_q), which Definition 3 weighs, not by leaving P_q; one
// whose classes change re-registers.
type CapabilityReporter interface {
	Capabilities() []int
}

// Directory is a concurrency-safe participant catalog with a class-keyed
// capability index. The zero value is not usable; call New.
type Directory struct {
	mu        sync.RWMutex
	providers map[model.ProviderID]Provider
	consumers map[model.ConsumerID]Consumer

	// classesOf remembers the classes a provider was filed under at
	// registration (nil = universal), so unregistration can unindex it
	// without consulting the provider again.
	classesOf map[model.ProviderID][]int

	// universal and byClass hold the sorted entry lists (guarded by mu):
	// the index bucket of class c is the ordered merge of universal and
	// byClass[c]. A class whose last specialist left has no list.
	universal entryList
	byClass   map[int]*entryList

	// classes is the read path's immutable copy of byClass, nil after the
	// set of classes changed; uniGen counts writes to universal and stamps
	// every view, so one increment marks them all stale.
	classes atomic.Pointer[map[int]*entryList]
	uniGen  atomic.Uint64

	// obs is the registration observer; never nil.
	obs event.Observer
}

// entry is one indexed provider; the ID is held inline so ordering and
// lookup never call into the provider.
type entry struct {
	id model.ProviderID
	p  Provider
}

// entryList is one sorted list of the index and the published view of the
// bucket it anchors — a class's list anchors universal ∪ class, the universal
// list the bucket of every class without specialists (nil after a write to
// the list).
type entryList struct {
	entries []entry // ascending id; guarded by Directory.mu
	view    atomic.Pointer[View]
}

// View is an immutable snapshot of one class's index bucket: every universal
// provider and every specialist of the class registered when it was built,
// in ascending ProviderID order — P_q for every query of the class.
type View struct {
	entries []entry
	uniGen  uint64
}

// Len returns the number of providers in the bucket.
func (v *View) Len() int { return len(v.entries) }

// At returns the provider at position i (0 ≤ i < Len(), ascending ID).
func (v *View) At(i int) Provider { return v.entries[i].p }

// Find returns the bucket's provider with the given ID, or nil.
func (v *View) Find(id model.ProviderID) Provider {
	if i, ok := search(v.entries, id); ok {
		return v.entries[i].p
	}
	return nil
}

// search returns the position of id in the ascending list es, or where it
// would be inserted.
func search(es []entry, id model.ProviderID) (int, bool) {
	i := sort.Search(len(es), func(k int) bool { return es[k].id >= id })
	return i, i < len(es) && es[i].id == id
}

// New returns an empty directory.
func New() *Directory {
	return &Directory{
		providers: make(map[model.ProviderID]Provider),
		consumers: make(map[model.ConsumerID]Consumer),
		classesOf: make(map[model.ProviderID][]int),
		byClass:   make(map[int]*entryList),
		obs:       event.Discard,
	}
}

// SetObserver installs an observer for registration churn: every
// RegisterProvider/Consumer emits OnProviderRegistered/OnConsumerRegistered
// and every successful Unregister* emits the matching departure event.
// Events fire after the directory lock is released, on the registering
// goroutine; under concurrent churn the emission order may therefore differ
// from the serialization order the catalog itself observed. A nil observer
// disables emission. Call it before the directory is shared.
func (d *Directory) SetObserver(o event.Observer) {
	if o == nil {
		o = event.Discard
	}
	d.obs = o
}

// RegisterProvider adds (or replaces) a provider and files it in the
// capability index.
func (d *Directory) RegisterProvider(p Provider) {
	id := p.ProviderID()
	var classes []int
	if cr, ok := p.(CapabilityReporter); ok {
		if caps := cr.Capabilities(); len(caps) > 0 {
			classes = append([]int(nil), caps...)
		}
	}
	d.mu.Lock()
	if _, exists := d.providers[id]; exists {
		d.unindexLocked(id)
	}
	d.providers[id] = p
	d.classesOf[id] = classes
	if classes == nil {
		d.universal.insert(id, p)
		d.uniGen.Add(1)
	}
	for _, c := range classes {
		b := d.byClass[c]
		if b == nil {
			b = &entryList{}
			d.byClass[c] = b
			d.classes.Store(nil)
		}
		b.insert(id, p)
	}
	d.mu.Unlock()
	d.obs.OnProviderRegistered(id)
}

// UnregisterProvider removes a provider from the catalog and the index. A
// query that starts after it returns never sees the provider: every view
// holding it is stale by then. Removal does not synchronize with in-flight
// discovery or mediation: a mediation that already loaded a view holding the
// provider may still invoke Snapshot or Intention after this returns, so
// provider implementations must keep those methods safe to call until
// in-flight mediations quiesce — not merely until unregistration returns.
func (d *Directory) UnregisterProvider(id model.ProviderID) {
	d.mu.Lock()
	_, exists := d.providers[id]
	if exists {
		d.unindexLocked(id)
		delete(d.providers, id)
		delete(d.classesOf, id)
	}
	d.mu.Unlock()
	if !exists {
		return
	}
	d.obs.OnProviderDeparted(id)
}

func (d *Directory) unindexLocked(id model.ProviderID) {
	classes := d.classesOf[id]
	if classes == nil {
		d.universal.remove(id)
		d.uniGen.Add(1)
		return
	}
	for _, c := range classes {
		b := d.byClass[c]
		b.remove(id)
		if len(b.entries) == 0 {
			delete(d.byClass, c)
			d.classes.Store(nil)
		}
	}
}

// RegisterConsumer adds (or replaces) a consumer.
func (d *Directory) RegisterConsumer(c Consumer) {
	id := c.ConsumerID()
	d.mu.Lock()
	d.consumers[id] = c
	d.mu.Unlock()
	d.obs.OnConsumerRegistered(id)
}

// UnregisterConsumer removes a consumer.
func (d *Directory) UnregisterConsumer(id model.ConsumerID) {
	d.mu.Lock()
	_, exists := d.consumers[id]
	delete(d.consumers, id)
	d.mu.Unlock()
	if !exists {
		return
	}
	d.obs.OnConsumerDeparted(id)
}

// Provider returns the registered provider with the given ID, or nil.
func (d *Directory) Provider(id model.ProviderID) Provider {
	d.mu.RLock()
	p := d.providers[id]
	d.mu.RUnlock()
	return p
}

// Consumer returns the registered consumer with the given ID, or nil.
func (d *Directory) Consumer(id model.ConsumerID) Consumer {
	d.mu.RLock()
	c := d.consumers[id]
	d.mu.RUnlock()
	return c
}

// NumProviders returns the number of registered providers.
func (d *Directory) NumProviders() int {
	d.mu.RLock()
	n := len(d.providers)
	d.mu.RUnlock()
	return n
}

// ProviderIDs returns the IDs of every registered provider in ascending
// order — a point-in-time snapshot; under concurrent churn the set may be
// stale by the time the caller consults it.
func (d *Directory) ProviderIDs() []model.ProviderID {
	d.mu.RLock()
	ids := make([]model.ProviderID, 0, len(d.providers))
	for id := range d.providers {
		ids = append(ids, id)
	}
	d.mu.RUnlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// NumConsumers returns the number of registered consumers.
func (d *Directory) NumConsumers() int {
	d.mu.RLock()
	n := len(d.consumers)
	d.mu.RUnlock()
	return n
}

// View returns the current view of a query class's index bucket. The fast
// path is lock-free: the class's published view, if no write has touched it
// since it was built. Otherwise the caller rebuilds and republishes it.
func (d *Directory) View(class int) *View {
	if classes := d.classes.Load(); classes != nil {
		b := (*classes)[class]
		if b == nil {
			b = &d.universal // no specialists: the bucket is the universal list
		}
		if v := b.view.Load(); v != nil && v.uniGen == d.uniGen.Load() {
			return v
		}
	}
	return d.rebuildView(class)
}

// rebuildView builds and publishes the view of class from the entry lists.
// It runs under the read lock — writers hold the write lock while they edit
// the lists and mark views stale, so a view published here can never be
// older than the last write — and several readers may rebuild the same view
// at once; they publish equal views, and the last one stays.
func (d *Directory) rebuildView(class int) *View {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.classes.Load() == nil {
		classes := make(map[int]*entryList, len(d.byClass))
		for c, b := range d.byClass {
			classes[c] = b
		}
		d.classes.Store(&classes)
	}
	uni := d.universal.entries
	b := d.byClass[class]
	var cls []entry
	if b == nil {
		b = &d.universal
	} else {
		cls = b.entries
	}
	v := &View{entries: make([]entry, 0, len(uni)+len(cls)), uniGen: d.uniGen.Load()}
	// Ordered merge of the two disjoint sorted lists.
	i, j := 0, 0
	for i < len(uni) || j < len(cls) {
		if j >= len(cls) || (i < len(uni) && uni[i].id < cls[j].id) {
			v.entries = append(v.entries, uni[i])
			i++
		} else {
			v.entries = append(v.entries, cls[j])
			j++
		}
	}
	b.view.Store(v)
	return v
}

// Candidates appends to buf the providers able to perform q — the candidate
// set P_q, its class view — in ascending ProviderID order, and returns the
// extended slice. It is the materialising form of discovery, O(|P_q|) by
// construction; the mediator samples the view instead.
//
// The returned providers are the live registered instances; callers that
// mediate concurrently must tolerate providers unregistering after the call
// returns (see mediator.backfillIntentions).
func (d *Directory) Candidates(q model.Query, buf []Provider) []Provider {
	for _, e := range d.View(q.Class).entries {
		buf = append(buf, e.p)
	}
	return buf
}

// insert files p under id, keeping the list sorted, and marks the list's
// view stale. An id already present (a capability declared twice) stays.
func (b *entryList) insert(id model.ProviderID, p Provider) {
	i, present := search(b.entries, id)
	if present {
		return
	}
	b.entries = append(b.entries, entry{})
	copy(b.entries[i+1:], b.entries[i:])
	b.entries[i] = entry{id: id, p: p}
	b.view.Store(nil)
}

// remove drops id from the list if present and marks the view stale.
func (b *entryList) remove(id model.ProviderID) {
	es := b.entries
	i, present := search(es, id)
	if !present {
		return
	}
	copy(es[i:], es[i+1:])
	es[len(es)-1] = entry{} // drop the tail's provider reference
	b.entries = es[:len(es)-1]
	b.view.Store(nil)
}
