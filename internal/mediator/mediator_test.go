package mediator

import (
	"context"
	"errors"
	"math"
	"testing"

	"sbqa/internal/alloc"
	"sbqa/internal/core"
	"sbqa/internal/directory"
	"sbqa/internal/knbest"
	"sbqa/internal/model"
	"sbqa/internal/satisfaction"
)

// fakeConsumer likes providers according to a fixed table.
type fakeConsumer struct {
	id    model.ConsumerID
	likes map[model.ProviderID]model.Intention
	asked int
}

func (c *fakeConsumer) ConsumerID() model.ConsumerID { return c.id }
func (c *fakeConsumer) Intention(_ model.Query, snap model.ProviderSnapshot) model.Intention {
	c.asked++
	return c.likes[snap.ID]
}

// fakeProvider reports fixed state.
type fakeProvider struct {
	id        model.ProviderID
	util      float64
	intention model.Intention
	bid       float64
	classes   map[int]bool // nil = performs anything
}

func (p *fakeProvider) ProviderID() model.ProviderID { return p.id }
func (p *fakeProvider) Snapshot(float64) model.ProviderSnapshot {
	return model.ProviderSnapshot{ID: p.id, Utilization: p.util, Capacity: 1}
}
func (p *fakeProvider) Capabilities() []int {
	var out []int
	for class := range p.classes {
		out = append(out, class)
	}
	return out
}
func (p *fakeProvider) Intention(model.Query) model.Intention { return p.intention }
func (p *fakeProvider) Bid(model.Query) float64               { return p.bid }

func newTestMediator(a alloc.Allocator) *Mediator {
	return New(a, Config{Window: 10, AnalyzeBest: true})
}

func q(id int64, c model.ConsumerID, n int) model.Query {
	return model.Query{ID: model.QueryID(id), Consumer: c, N: n, Work: 1}
}

// bg is the background context every synchronous test mediation uses.
var bg = context.Background()

func TestMediateValidation(t *testing.T) {
	m := newTestMediator(alloc.NewCapacity())
	if _, err := m.Mediate(bg, 0, model.Query{ID: 1, Consumer: 0, N: 0, Work: 1}); err == nil {
		t.Error("invalid query accepted")
	}
	if _, err := m.Mediate(bg, 0, q(1, 9, 1)); err == nil {
		t.Error("unregistered consumer accepted")
	}
}

func TestMediateNoCandidates(t *testing.T) {
	m := newTestMediator(alloc.NewCapacity())
	c := &fakeConsumer{id: 0}
	m.RegisterConsumer(c)
	_, err := m.Mediate(bg, 0, q(1, 0, 1))
	if !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("err = %v, want ErrNoCandidates", err)
	}
	// The failed mediation must hurt the consumer's satisfaction.
	if got := m.Registry().ConsumerSatisfaction(0); got != 0 {
		t.Errorf("consumer δs after failure = %v, want 0", got)
	}
}

func TestMediateClassFiltering(t *testing.T) {
	m := newTestMediator(alloc.NewCapacity())
	m.RegisterConsumer(&fakeConsumer{id: 0})
	m.RegisterProvider(&fakeProvider{id: 1, classes: map[int]bool{1: true}})
	m.RegisterProvider(&fakeProvider{id: 2, classes: map[int]bool{2: true}})

	query := q(1, 0, 1)
	query.Class = 2
	a, err := m.Mediate(bg, 0, query)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Selected) != 1 || a.Selected[0] != 2 {
		t.Errorf("Selected = %v, want [2]", a.Selected)
	}

	query.Class = 3
	if _, err := m.Mediate(bg, 0, query); !errors.Is(err, ErrNoCandidates) {
		t.Errorf("class with no providers: err = %v", err)
	}
}

func TestMediateBackfillsIntentionsForBaselines(t *testing.T) {
	m := newTestMediator(alloc.NewCapacity())
	cons := &fakeConsumer{id: 0, likes: map[model.ProviderID]model.Intention{1: 0.5}}
	m.RegisterConsumer(cons)
	m.RegisterProvider(&fakeProvider{id: 1, intention: -0.25})

	a, err := m.Mediate(bg, 0, q(1, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.ConsumerIntentions) != 1 || a.ConsumerIntentions[0] != 0.5 {
		t.Errorf("CI backfill = %v", a.ConsumerIntentions)
	}
	if len(a.ProviderIntentions) != 1 || a.ProviderIntentions[0] != -0.25 {
		t.Errorf("PI backfill = %v", a.ProviderIntentions)
	}
	// Satisfactions recorded from those intentions.
	if got := m.Registry().ConsumerSatisfaction(0); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("consumer δs = %v, want 0.75", got)
	}
	if got := m.Registry().ProviderSatisfaction(1); math.Abs(got-0.375) > 1e-12 {
		t.Errorf("provider δs = %v, want 0.375", got)
	}
}

func TestMediateWithSbQAAllocator(t *testing.T) {
	sbqa := core.MustNew(core.Config{KnBest: knbest.Params{K: 0, Kn: 0}})
	m := newTestMediator(sbqa)
	cons := &fakeConsumer{id: 0, likes: map[model.ProviderID]model.Intention{
		1: 0.9, 2: 0.9, 3: -0.9,
	}}
	m.RegisterConsumer(cons)
	m.RegisterProvider(&fakeProvider{id: 1, intention: 0.9})
	m.RegisterProvider(&fakeProvider{id: 2, intention: -0.9})
	m.RegisterProvider(&fakeProvider{id: 3, intention: 0.9})

	a, err := m.Mediate(bg, 0, q(1, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if a.Selected[0] != 1 {
		t.Errorf("Selected = %v, want provider 1 (mutual interest)", a.Selected)
	}
	// SbQA collected intentions itself — backfill must not overwrite them.
	ci, pi, ok := intentionFor(a, 1)
	if !ok || ci != 0.9 || pi != 0.9 {
		t.Errorf("intentions for 1 = %v/%v/%v", ci, pi, ok)
	}
	// All three providers were proposed (kn disabled ⇒ Kn = P_q) and so
	// all three recorded the interaction.
	if got := m.Registry().ProviderSatisfaction(2); got != 0 {
		t.Errorf("unselected provider δs = %v, want 0 (proposed, not performed)", got)
	}
}

func TestUnregisterForgetsMemory(t *testing.T) {
	m := newTestMediator(alloc.NewCapacity())
	m.RegisterConsumer(&fakeConsumer{id: 0})
	m.RegisterProvider(&fakeProvider{id: 1, intention: 1})
	if _, err := m.Mediate(bg, 0, q(1, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if m.Providers() != 1 || m.Consumers() != 1 {
		t.Error("registration counts wrong")
	}
	m.UnregisterProvider(1)
	if m.Providers() != 0 {
		t.Error("provider not unregistered")
	}
	if got := m.Registry().ProviderSatisfaction(1); got != 0.5 {
		t.Errorf("departed provider memory kept: %v", got)
	}
}

func TestMediateDeterministicCandidateOrder(t *testing.T) {
	// Two mediators with identical state and a seeded SbQA must allocate
	// identically even though provider registration order differs (the
	// map-iteration order must not leak into candidate order).
	build := func(order []int) *Mediator {
		sbqa := core.MustNew(core.Config{KnBest: knbest.Params{K: 2, Kn: 1}, Seed: 5})
		m := newTestMediator(sbqa)
		m.RegisterConsumer(&fakeConsumer{id: 0})
		for _, id := range order {
			m.RegisterProvider(&fakeProvider{id: model.ProviderID(id), intention: 0.5})
		}
		return m
	}
	m1 := build([]int{1, 2, 3, 4, 5})
	m2 := build([]int{5, 3, 1, 4, 2})
	for i := int64(0); i < 30; i++ {
		a1, err1 := m1.Mediate(bg, 0, q(i, 0, 1))
		a2, err2 := m2.Mediate(bg, 0, q(i, 0, 1))
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if a1.Selected[0] != a2.Selected[0] {
			t.Fatalf("allocation depends on registration order: %v vs %v", a1.Selected, a2.Selected)
		}
	}
}

func TestSetAllocator(t *testing.T) {
	m := newTestMediator(alloc.NewCapacity())
	if m.Allocator().Name() != "Capacity" {
		t.Error("initial allocator wrong")
	}
	m.SetAllocator(alloc.NewRoundRobin())
	if m.Allocator().Name() != "RoundRobin" {
		t.Error("SetAllocator not applied")
	}
	if m.Provider(1) != nil || m.Consumer(1) != nil {
		t.Error("lookups on empty mediator should be nil")
	}
}

func TestAnalyzeBestRecordsTrueOptimum(t *testing.T) {
	// Capacity picks the idle provider the consumer hates; AnalyzeBest
	// makes allocation satisfaction reflect the missed better option.
	m := New(alloc.NewCapacity(), Config{Window: 10, AnalyzeBest: true})
	cons := &fakeConsumer{id: 0, likes: map[model.ProviderID]model.Intention{
		1: -1, // idle, will be picked
		2: 1,  // busy, ignored by capacity
	}}
	m.RegisterConsumer(cons)
	m.RegisterProvider(&fakeProvider{id: 1, util: 0.0})
	m.RegisterProvider(&fakeProvider{id: 2, util: 0.9})
	if _, err := m.Mediate(bg, 0, q(1, 0, 1)); err != nil {
		t.Fatal(err)
	}
	tr := m.Registry().Consumer(0)
	if got := tr.AllocationSatisfaction(); got != 0 {
		t.Errorf("allocation satisfaction = %v, want 0 (got hated provider, loved one available)", got)
	}
}

// unregisteringAllocator wraps an inner allocator and unregisters a provider
// from the mediator's directory *during* Allocate — simulating a provider
// departing mid-flight between candidate discovery and intention backfill,
// which is possible when the directory is shared with concurrent
// registrars (the sharded live engine).
type unregisteringAllocator struct {
	inner  alloc.Allocator
	m      *Mediator
	victim model.ProviderID
}

func (u *unregisteringAllocator) Name() string { return "unregistering" }
func (u *unregisteringAllocator) Allocate(ctx context.Context, e alloc.Env, q model.Query, cands alloc.Source) (*model.Allocation, error) {
	a, err := u.inner.Allocate(ctx, e, q, cands)
	u.m.Directory().UnregisterProvider(u.victim)
	u.m.Registry().ForgetProvider(u.victim)
	return a, err
}

// TestBackfillDropsStaleProvider is the regression test for the historical
// bug where a provider that unregistered mid-flight was silently recorded
// with zero intentions: its satisfaction tracker was resurrected and the
// consumer's window recorded a phantom zero-intention result.
func TestBackfillDropsStaleProvider(t *testing.T) {
	m := newTestMediator(nil)
	cons := &fakeConsumer{id: 0, likes: map[model.ProviderID]model.Intention{1: 0.5, 2: 0.5}}
	m.RegisterConsumer(cons)
	m.RegisterProvider(&fakeProvider{id: 1, intention: 0.5})
	m.RegisterProvider(&fakeProvider{id: 2, intention: 0.5, util: 0.9})
	// Capacity proposes both providers, selects idle provider 1; provider 2
	// unregisters during allocation.
	m.SetAllocator(&unregisteringAllocator{inner: alloc.NewCapacity(), m: m, victim: 2})

	a, err := m.Mediate(bg, 0, q(1, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range a.Proposed {
		if id == 2 {
			t.Errorf("stale provider 2 still in Proposed: %v", a.Proposed)
		}
	}
	for _, id := range a.Selected {
		if id == 2 {
			t.Errorf("stale provider 2 still in Selected: %v", a.Selected)
		}
	}
	if len(a.ConsumerIntentions) != len(a.Proposed) || len(a.ProviderIntentions) != len(a.Proposed) {
		t.Errorf("intentions misaligned after compaction: %d CI / %d PI for %d proposed",
			len(a.ConsumerIntentions), len(a.ProviderIntentions), len(a.Proposed))
	}
	// The departed provider's tracker must NOT have been resurrected.
	if got := m.Registry().ProviderSatisfaction(2); got != 0.5 {
		t.Errorf("stale provider tracker resurrected: δs = %v, want Neutral", got)
	}
	// The surviving provider recorded the interaction normally.
	if got := m.Registry().ProviderSatisfaction(1); got != 0.75 {
		t.Errorf("surviving provider δs = %v, want 0.75", got)
	}
}

// TestBackfillAllStale: if every proposed provider departs mid-flight and
// the retry finds the directory drained, the mediation is reported with the
// transient stale-selection sentinel (capacity existed at discovery time)
// rather than an empty allocation or the terminal ErrNoCandidates.
func TestBackfillAllStale(t *testing.T) {
	m := newTestMediator(nil)
	m.RegisterConsumer(&fakeConsumer{id: 0})
	m.RegisterProvider(&fakeProvider{id: 1, intention: 1})
	m.SetAllocator(&unregisteringAllocator{inner: alloc.NewCapacity(), m: m, victim: 1})
	if _, err := m.Mediate(bg, 0, q(1, 0, 1)); !errors.Is(err, ErrStaleSelection) {
		t.Errorf("err = %v, want ErrStaleSelection", err)
	}
	// The consumer's dissatisfaction accumulated for the failed query.
	if got := m.Registry().ConsumerSatisfaction(0); got != 0 {
		t.Errorf("consumer δs = %v, want 0", got)
	}
}

// oneShotStaleAllocator unregisters victim during its first Allocate only —
// the churn settles, so the pipeline's stale retry sees a stable refreshed
// candidate set.
type oneShotStaleAllocator struct {
	inner  alloc.Allocator
	m      *Mediator
	victim model.ProviderID
	fired  bool
}

func (u *oneShotStaleAllocator) Name() string { return "one-shot-stale" }
func (u *oneShotStaleAllocator) Allocate(ctx context.Context, e alloc.Env, q model.Query, cands alloc.Source) (*model.Allocation, error) {
	a, err := u.inner.Allocate(ctx, e, q, cands)
	if !u.fired {
		u.fired = true
		u.m.Directory().UnregisterProvider(u.victim)
		u.m.Registry().ForgetProvider(u.victim)
	}
	return a, err
}

// TestStaleSelectionRetries: when the whole selection goes stale mid-flight
// but other capacity is still registered, mediation re-discovers against the
// refreshed directory and serves the query instead of failing it.
func TestStaleSelectionRetries(t *testing.T) {
	m := newTestMediator(nil)
	m.RegisterConsumer(&fakeConsumer{id: 0, likes: map[model.ProviderID]model.Intention{1: 0.5, 2: 0.5}})
	m.RegisterProvider(&fakeProvider{id: 1, intention: 0.5})            // idle: capacity picks it first
	m.RegisterProvider(&fakeProvider{id: 2, intention: 0.5, util: 0.9}) // busy survivor
	m.SetAllocator(&oneShotStaleAllocator{inner: alloc.NewCapacity(), m: m, victim: 1})

	a, err := m.Mediate(bg, 0, q(1, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Selected) != 1 || a.Selected[0] != 2 {
		t.Fatalf("retry selected %v, want surviving provider 2", a.Selected)
	}
	// Exactly one outcome recorded — the abandoned first attempt left no
	// trace in the consumer's window.
	if n := m.Registry().Consumer(0).Interactions(); n != 1 {
		t.Errorf("consumer interactions = %d, want 1", n)
	}
}

// churningAllocator unregisters every provider it selects and registers a
// fresh replacement, so each attempt's selection goes stale while registered
// capacity always exists — the pathological churn that must surface as
// ErrStaleSelection rather than ErrNoCandidates.
type churningAllocator struct {
	inner alloc.Allocator
	m     *Mediator
	next  model.ProviderID
}

func (u *churningAllocator) Name() string { return "churning" }
func (u *churningAllocator) Allocate(ctx context.Context, e alloc.Env, q model.Query, cands alloc.Source) (*model.Allocation, error) {
	a, err := u.inner.Allocate(ctx, e, q, cands)
	if a != nil {
		for _, id := range a.Selected {
			u.m.Directory().UnregisterProvider(id)
			u.m.Registry().ForgetProvider(id)
		}
	}
	u.m.RegisterProvider(&fakeProvider{id: u.next, intention: 0.5})
	u.next++
	return a, err
}

// TestStaleSelectionError: when even the retry's selection churns away,
// Mediate reports ErrStaleSelection — distinct from ErrNoCandidates, since
// capacity was registered the whole time — and records the query as
// unserved exactly once.
func TestStaleSelectionError(t *testing.T) {
	m := newTestMediator(nil)
	m.RegisterConsumer(&fakeConsumer{id: 0})
	m.RegisterProvider(&fakeProvider{id: 1, intention: 0.5})
	m.SetAllocator(&churningAllocator{inner: alloc.NewCapacity(), m: m, next: 2})

	_, err := m.Mediate(bg, 0, q(1, 0, 1))
	if !errors.Is(err, ErrStaleSelection) {
		t.Fatalf("err = %v, want ErrStaleSelection", err)
	}
	if errors.Is(err, ErrNoCandidates) {
		t.Error("ErrStaleSelection must not match ErrNoCandidates")
	}
	if n := m.Registry().Consumer(0).Interactions(); n != 1 {
		t.Errorf("consumer interactions = %d, want 1", n)
	}
	if got := m.Registry().ConsumerSatisfaction(0); got != 0 {
		t.Errorf("consumer δs = %v, want 0", got)
	}
}

func TestMediateReportsPerQueryErrors(t *testing.T) {
	m := newTestMediator(alloc.NewCapacity())
	m.RegisterConsumer(&fakeConsumer{id: 0})
	m.RegisterProvider(&fakeProvider{id: 1, classes: map[int]bool{0: true}})
	qs := []model.Query{
		q(1, 0, 1),           // fine
		q(2, 7, 1),           // unregistered consumer
		{ID: 3, Consumer: 0}, // invalid (N=0)
	}
	qs[0].Class = 0
	allocs := make([]*model.Allocation, len(qs))
	errs := make([]error, len(qs))
	for i, qq := range qs {
		allocs[i], errs[i] = m.Mediate(bg, 0, qq)
	}
	if errs[0] != nil || allocs[0] == nil {
		t.Errorf("query 0: %v", errs[0])
	}
	if errs[1] == nil {
		t.Error("unregistered consumer accepted")
	}
	if errs[2] == nil {
		t.Error("invalid query accepted")
	}
}

// TestSharedDirectoryAndRegistry: two mediator shards over one directory and
// one registry see each other's participants and satisfaction state — the
// wiring the live engine depends on.
func TestSharedDirectoryAndRegistry(t *testing.T) {
	dir := directory.New()
	reg := satisfaction.NewRegistry(10)
	m1 := New(alloc.NewCapacity(), Config{Window: 10, Registry: reg, Directory: dir})
	m2 := New(alloc.NewCapacity(), Config{Window: 10, Registry: reg, Directory: dir})

	m1.RegisterProvider(&fakeProvider{id: 1, intention: 1})
	m1.RegisterConsumer(&fakeConsumer{id: 0, likes: map[model.ProviderID]model.Intention{1: 1}})
	m2.RegisterConsumer(&fakeConsumer{id: 1, likes: map[model.ProviderID]model.Intention{1: 1}})

	if m2.Providers() != 1 {
		t.Fatal("shard 2 does not see shard 1's provider")
	}
	if _, err := m1.Mediate(bg, 0, q(1, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Mediate(bg, 0, q(2, 1, 1)); err != nil {
		t.Fatal(err)
	}
	// Both mediations recorded into the one registry.
	if got := reg.ProviderSatisfaction(1); got != 1 {
		t.Errorf("shared provider δs = %v, want 1", got)
	}
	if got := m1.Registry().ConsumerSatisfaction(1); got != 1 {
		t.Errorf("shard 1 cannot read shard 2's consumer δs: %v", got)
	}
}

// intentionFor returns the consumer and provider intentions a records for
// provider p, and whether p was part of the proposal.
func intentionFor(a *model.Allocation, p model.ProviderID) (ci, pi model.Intention, ok bool) {
	for i, pp := range a.Proposed {
		if pp == p {
			return a.ConsumerIntentions[i], a.ProviderIntentions[i], true
		}
	}
	return 0, 0, false
}
