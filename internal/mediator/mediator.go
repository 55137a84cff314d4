// Package mediator implements the mediation pipeline of the SbQA
// architecture (Fig. 1 of the paper): for each incoming query it discovers
// the candidate set P_q through the provider directory, lets the configured
// allocation technique mediate it, backfills the intentions the satisfaction
// model needs, records the outcome in the satisfaction registry, and hands
// the allocation back to the caller (the simulation world or the live
// engine) for dispatch.
//
// The mediator is technique-agnostic: SbQA, the capacity-based baseline, the
// economic baseline, and the controls all run behind the same pipeline,
// which is what lets the satisfaction model "analyze different query
// allocation techniques no matter their query allocation principle"
// (Scenario 1 of the demo).
//
// Participant registration lives in the directory layer
// (internal/directory); a fleet of mediator shards shares one
// *directory.Directory as its catalog. A mediator
// constructed with the zero Config owns a private directory and a private
// satisfaction registry and behaves exactly like the historical
// single-registry pipeline.
//
// One Mediator instance is not safe for concurrent use — its scratch
// buffers and its allocator are single-threaded. Concurrency comes from
// running several mediators (shards) over a shared Directory and a shared
// lock-striped satisfaction.Registry; that wiring lives in internal/live.
package mediator

import (
	"context"
	"errors"
	"fmt"
	"time"

	"sbqa/internal/alloc"
	"sbqa/internal/directory"
	"sbqa/internal/event"
	"sbqa/internal/model"
	"sbqa/internal/satisfaction"
	"sbqa/internal/trace"
)

// Consumer is the mediator-side view of a consumer. It is an alias of the
// directory's contract: the directory stores participants, the mediator
// consumes them.
type Consumer = directory.Consumer

// Provider is the mediator-side view of a provider (alias of the directory
// contract; see Consumer).
type Provider = directory.Provider

// ShareReporter is an optional Provider extension for BOINC-style resource
// shares (see alloc.ShareBased): it reports how much capacity the provider
// still has available for a query's consumer under its declared shares.
type ShareReporter interface {
	DevotedAvailable(q model.Query) float64
}

// ErrNoCandidates is returned when no online provider can perform a query.
var ErrNoCandidates = errors.New("mediator: no online provider can perform query")

// ErrStaleSelection is returned when the candidate set was non-empty but
// every selected provider unregistered between candidate discovery and
// intention backfill — a transient registration race, only possible when the
// directory is shared with concurrent registrars. It is distinct from
// ErrNoCandidates so callers can retry instead of giving up: capacity
// existed, it just churned away mid-mediation. The pipeline already retries
// discovery once against the refreshed directory before reporting this.
var ErrStaleSelection = errors.New("mediator: every selected provider unregistered during mediation")

// Config tunes pipeline behaviour.
type Config struct {
	// Window is the satisfaction memory length k.
	Window int

	// AnalyzeBest, when set, computes the consumer's intention toward the
	// *whole* candidate set for every query so the registry can derive
	// allocation satisfaction against the true optimum. Costs O(|P_q|)
	// intention calls per query; experiments with a few hundred providers
	// keep it on.
	AnalyzeBest bool

	// Observer, when set, receives the pipeline's lifecycle events:
	// OnAllocation for every successful mediation (the completed
	// allocation, which must not be mutated, and |P_q|, the size of the
	// population the allocator drew from) and OnRejection
	// for every failed one, with the reason (ErrNoCandidates,
	// ErrStaleSelection, or a validation error). Callbacks run
	// synchronously on the mediating goroutine — with several shards,
	// concurrently — and must be fast, non-blocking, and safe for
	// concurrent use.
	Observer event.Observer

	// Registry, when set, is the satisfaction registry this mediator
	// records into — the sharded live engine points every shard at one
	// shared lock-striped registry. Nil gets a private registry with the
	// configured Window.
	Registry *satisfaction.Registry

	// Directory, when set, supplies participant storage and candidate
	// discovery — shared across engine shards. Nil gets a private
	// directory.
	Directory *directory.Directory

	// ParticipantDeadline bounds each context-aware participant call
	// (ConsumerParticipant, ProviderParticipant) during batched intention
	// collection. A participant that misses its
	// deadline is abandoned and its intention imputed from the
	// satisfaction registry (see fanout.go); the mediation never stalls on
	// a silent participant. Zero means no per-participant bound — only the
	// mediation context limits the calls. In-process participants (the
	// synchronous directory contracts) are never subject to it.
	ParticipantDeadline time.Duration

	// Tracer, when set, receives the pipeline-stage spans (fan-out,
	// imputation, scoring) of sampled queries — queries whose
	// q.Trace.Sampled is true. Unsampled queries never touch it; a nil
	// tracer records nothing even for sampled queries.
	Tracer *trace.Recorder
}

// Mediator is the pipeline. One instance is not safe for concurrent use;
// run one mediator per shard over a shared Directory and Registry instead
// (see the package doc).
type Mediator struct {
	cfg       Config
	allocator alloc.Allocator
	registry  *satisfaction.Registry
	dir       *directory.Directory

	// Mediation scratch arena (DESIGN.md §9): per-shard buffers reused
	// across mediations so the hot path allocates nothing. The arena is
	// owned by the mediating goroutine — it never crosses shard boundaries —
	// and every buffer's contents are dead once the mediation that filled it
	// returns an allocation that owns its own copies.
	envBox  env                      // reusable Env adapter (pointer-passed, no per-mediation boxing)
	src     candidates               // the in-flight query's candidate source (pointer-passed likewise)
	snapBuf []model.ProviderSnapshot // all of P_q, for the AnalyzeBest round only
	ciBuf   []model.Intention        // batched CI collection
	piBuf   []model.Intention        // batched PI collection
	provBuf []Provider               // the batch's providers, resolved once per intention round
	bidBuf  []float64                // batched bid collection
	perfBuf []model.Intention        // performed-intentions vector for satisfaction recording
	bfSnaps []model.ProviderSnapshot // backfill snapshots

	// tracer is the per-query span sink for sampled queries (nil-safe).
	tracer *trace.Recorder
	// lastFanoutEnd stashes when the most recent intention collection of
	// the in-flight sampled mediation ended, so the score span measures
	// the allocator's own ranking work net of the fan-out it triggered.
	// Reset before each Allocate; zero means the allocator never fanned
	// out. Scratch like the buffers above: single mediating goroutine.
	lastFanoutEnd int64
}

// New returns a mediator running the given allocation technique.
func New(allocator alloc.Allocator, cfg Config) *Mediator {
	registry := cfg.Registry
	if registry == nil {
		registry = satisfaction.NewRegistry(cfg.Window)
	}
	dir := cfg.Directory
	if dir == nil {
		dir = directory.New()
	}
	if cfg.Observer == nil {
		cfg.Observer = event.Discard
	}
	m := &Mediator{
		cfg:       cfg,
		allocator: allocator,
		registry:  registry,
		dir:       dir,
	}
	m.envBox.m = m
	m.tracer = cfg.Tracer
	return m
}

// Allocator returns the active allocation technique.
func (m *Mediator) Allocator() alloc.Allocator { return m.allocator }

// SetAllocator swaps the allocation technique (used by sweeps and by the
// live engine's policy generations; satisfaction memory is preserved). Like
// Mediate, it must run on the mediating goroutine — the engine applies
// generation swaps under the shard lock, at mediation boundaries.
func (m *Mediator) SetAllocator(a alloc.Allocator) { m.allocator = a }

// SetParticipantDeadline retunes the per-participant bound on context-aware
// intention and bid calls (see Config.ParticipantDeadline). Same threading
// contract as SetAllocator: call it on the mediating goroutine only.
func (m *Mediator) SetParticipantDeadline(d time.Duration) { m.cfg.ParticipantDeadline = d }

// Registry exposes the satisfaction registry (read by experiments and by
// participant departure rules).
func (m *Mediator) Registry() *satisfaction.Registry { return m.registry }

// Directory exposes the participant catalog the mediator consults.
func (m *Mediator) Directory() *directory.Directory { return m.dir }

// RegisterConsumer adds (or replaces) a consumer.
func (m *Mediator) RegisterConsumer(c Consumer) { m.dir.RegisterConsumer(c) }

// RegisterProvider adds (or replaces) a provider.
func (m *Mediator) RegisterProvider(p Provider) { m.dir.RegisterProvider(p) }

// UnregisterProvider removes a provider and drops its satisfaction memory.
func (m *Mediator) UnregisterProvider(id model.ProviderID) {
	m.dir.UnregisterProvider(id)
	m.registry.ForgetProvider(id)
}

// Providers returns the number of registered providers.
func (m *Mediator) Providers() int { return m.dir.NumProviders() }

// Consumers returns the number of registered consumers.
func (m *Mediator) Consumers() int { return m.dir.NumConsumers() }

// Provider returns the registered provider with the given ID, or nil.
func (m *Mediator) Provider(id model.ProviderID) Provider { return m.dir.Provider(id) }

// Consumer returns the registered consumer with the given ID, or nil.
func (m *Mediator) Consumer(id model.ConsumerID) Consumer { return m.dir.Consumer(id) }

// env adapts the participant registries to the batched alloc.Env for one
// mediation. The batch methods (Intentions, Bids, AppendProviderSatisfactions)
// live in fanout.go: they are the default adapter of the intention protocol,
// fanning context-aware participants out concurrently while calling
// in-process participants inline.
type env struct {
	m        *Mediator
	consumer Consumer
}

// DevotedAvailable implements alloc.ShareEnv by delegating to providers
// that declare resource shares; providers without shares expose their plain
// available capacity.
func (e env) DevotedAvailable(q model.Query, p model.ProviderSnapshot) float64 {
	if prov := e.m.candidateOf(p.ID); prov != nil {
		if sr, ok := prov.(ShareReporter); ok {
			return sr.DevotedAvailable(q)
		}
	}
	return p.Capacity * (1 - p.Utilization)
}

// candidates is the mediator's alloc.Source: the in-flight query's class
// view — P_q — from which allocators pull snapshots by position. Only the
// providers an allocator reaches for are snapshotted, and the draw keeps
// each one next to its snapshot, so the rest of the mediation (intention
// round, bids, backfill) finds a drawn provider by a scan of the draw
// rather than a search of the view.
type candidates struct {
	view *directory.View
	now  float64

	// The draw, position-aligned: every provider At handed out and its
	// snapshot, in draw order.
	provs []Provider
	snaps []model.ProviderSnapshot
}

// maxDrawScan is the longest draw that is scanned for a provider: past it
// (k beyond 64, up to k = |P_q|) resolving Kn by scans would be quadratic,
// so lookups fall back to the view's binary search.
const maxDrawScan = 64

// reset points the source at a new mediation's view.
func (c *candidates) reset(view *directory.View, now float64) {
	clear(c.provs) // drop the last draw's provider references
	c.view, c.now = view, now
	c.provs, c.snaps = c.provs[:0], c.snaps[:0]
}

// Len implements alloc.Source.
func (c *candidates) Len() int { return c.view.Len() }

// At implements alloc.Source.
func (c *candidates) At(i int) model.ProviderSnapshot {
	p := c.view.At(i)
	snap := p.Snapshot(c.now)
	c.provs = append(c.provs, p)
	c.snaps = append(c.snaps, snap)
	return snap
}

// drawn returns the draw position of provider id, or -1 when At did not
// hand it out (or the draw is too long to scan).
func (c *candidates) drawn(id model.ProviderID) int {
	if len(c.snaps) > maxDrawScan {
		return -1
	}
	for i := range c.snaps {
		if c.snaps[i].ID == id {
			return i
		}
	}
	return -1
}

// snapshotOf returns the snapshot At already took of provider id in this
// mediation, or takes one (a technique that went through All re-snapshots
// only the few it proposed).
func (c *candidates) snapshotOf(id model.ProviderID, p Provider) model.ProviderSnapshot {
	if i := c.drawn(id); i >= 0 {
		return c.snaps[i]
	}
	return p.Snapshot(c.now)
}

// All implements alloc.Source.
func (c *candidates) All(buf []model.ProviderSnapshot) []model.ProviderSnapshot {
	for i, n := 0, c.view.Len(); i < n; i++ {
		buf = append(buf, c.view.At(i).Snapshot(c.now))
	}
	return buf
}

// candidateOf resolves a provider of the in-flight mediation: from the draw,
// else from its class view (a binary search over inline IDs), sparing the
// allocator's per-candidate calls a locked directory lookup on the hot path;
// providers outside the view fall back to the directory.
func (m *Mediator) candidateOf(id model.ProviderID) Provider {
	if i := m.src.drawn(id); i >= 0 {
		return m.src.provs[i]
	}
	if p := m.src.view.Find(id); p != nil {
		return p
	}
	return m.dir.Provider(id)
}

// resolve returns the providers of the batch kn, position-aligned, in the
// mediator's scratch: each member resolved once per intention round.
func (m *Mediator) resolve(kn []model.ProviderSnapshot) []Provider {
	provs := m.provBuf[:0]
	for _, snap := range kn {
		provs = append(provs, m.candidateOf(snap.ID))
	}
	m.provBuf = provs
	return provs
}

// ConsumerSatisfaction implements alloc.Env from the satisfaction registry.
func (e env) ConsumerSatisfaction(c model.ConsumerID) float64 {
	return e.m.registry.ConsumerSatisfaction(c)
}

// Mediate runs the full pipeline for query q at simulation time now:
// candidate discovery, batched intention collection, allocation,
// satisfaction recording. It returns ErrNoCandidates when P_q is empty — the
// caller records the query as unallocated (the consumer's satisfaction
// window records the failure either way, as the paper's Equation 1
// prescribes: an unserved query contributes zero satisfaction). When a
// shared directory's churn empties the selection mid-flight, mediation is
// retried once against the refreshed candidate set; if that attempt also
// goes stale, Mediate returns ErrStaleSelection.
//
// ctx bounds the whole mediation, including the in-flight intention fan-out
// to context-aware participants: once it is done the query is rejected with
// the context error and nothing is recorded. A nil ctx is treated as
// context.Background().
func (m *Mediator) Mediate(ctx context.Context, now float64, q model.Query) (*model.Allocation, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return m.mediate(ctx, now, q)
}

// reject reports a failed mediation to the configured observer and returns
// the error unchanged, so error paths stay one-liners.
func (m *Mediator) reject(q model.Query, err error) error {
	m.cfg.Observer.OnRejection(q, err)
	return err
}

// unserved records q as a failed mediation, so the consumer's dissatisfaction
// accumulates, and rejects it. On the stale retry the first attempt proved
// capacity existed — it churned away entirely before re-discovery (e.g. the
// registrar's unregister→reregister gap) — which is the transient sentinel,
// not the terminal one.
func (m *Mediator) unserved(q model.Query, attempt int) error {
	m.registry.RecordAllocation(&model.Allocation{Query: q}, nil)
	if attempt > 0 {
		return m.reject(q, ErrStaleSelection)
	}
	return m.reject(q, ErrNoCandidates)
}

func (m *Mediator) mediate(ctx context.Context, now float64, q model.Query) (*model.Allocation, error) {
	if err := ctx.Err(); err != nil {
		// Canceled before mediation: an infrastructure outcome, not a
		// capacity verdict — nothing is recorded in any satisfaction
		// window.
		return nil, m.reject(q, err)
	}
	if err := q.Validate(); err != nil {
		return nil, m.reject(q, fmt.Errorf("mediator: %w", err))
	}
	consumer := m.dir.Consumer(q.Consumer)
	if consumer == nil {
		return nil, m.reject(q, fmt.Errorf("mediator: query %d from unregistered consumer %d", q.ID, q.Consumer))
	}

	// Reuse the mediator-owned Env adapter: passing its pointer through the
	// alloc.Env interface avoids boxing a fresh env value per mediation.
	m.envBox.consumer = consumer
	e := &m.envBox

	// One retry when a shared directory's churn empties the selection
	// between candidate discovery and backfill: re-discover against the
	// refreshed catalog before reporting failure. Nothing is recorded for
	// the abandoned attempt — the query's outcome is recorded exactly once.
	const staleRetries = 1
	for attempt := 0; ; attempt++ {
		// Load the class's index bucket (ascending ID order): P_q. The
		// allocator pulls from it: nothing is snapshotted up front.
		view := m.dir.View(q.Class)
		m.src.reset(view, now)
		population := view.Len()
		if population == 0 {
			return nil, m.unserved(q, attempt)
		}

		var scoreStart int64
		if q.Trace.Sampled {
			m.lastFanoutEnd = 0
			scoreStart = trace.Now()
		}
		a, err := m.allocator.Allocate(ctx, e, q, &m.src)
		if q.Trace.Sampled {
			// The score span is the allocator's ranking work net of any
			// intention fan-out it triggered (which records its own span
			// and stashes its end time).
			if m.lastFanoutEnd > scoreStart {
				scoreStart = m.lastFanoutEnd
			}
			m.tracer.RecordSpan(q.Trace.ID, trace.Span{
				Name:  trace.StageScore,
				Start: scoreStart,
				End:   trace.Now(),
				Extra: int64(population),
			})
		}
		if err != nil {
			// Protocol failure: the context was canceled mid-fan-out or
			// the batched collection aborted. The query was never
			// mediated, so nothing is recorded.
			return nil, m.reject(q, err)
		}
		if a == nil || len(a.Selected) == 0 {
			// The technique turned every candidate down (ShareBased with
			// exhausted shares): the same verdict as an empty P_q.
			return nil, m.unserved(q, attempt)
		}

		m.backfillIntentions(ctx, e, a)
		if len(a.Selected) == 0 {
			// Every selected provider unregistered between candidate
			// discovery and backfill (only possible when the directory is
			// shared with concurrent registrars).
			if attempt < staleRetries {
				continue
			}
			m.registry.RecordAllocation(&model.Allocation{Query: q}, nil)
			return nil, m.reject(q, ErrStaleSelection)
		}

		// Optionally evaluate the consumer's intentions over the full
		// candidate set so allocation satisfaction is measured against the
		// true optimum rather than the proposed subset. This is a second
		// CI-only batch round (a context-aware consumer is contacted once
		// more, over all of P_q); imputation applies but is not reported —
		// it feeds analysis, not the allocation.
		// candidateCI may alias the mediator's CI scratch: the registry
		// consumes it synchronously (no tracker retains it), and the
		// allocation's own intention vectors are allocation-owned copies, so
		// the overwrite is safe.
		if q.Trace.Sampled && a.Explain == nil {
			// Interest-blind allocators build no explain record of their
			// own; reconstruct one from the backfilled allocation so every
			// sampled query can answer "why these providers".
			a.Explain = m.genericExplain(a, population)
		}

		var candidateCI []model.Intention
		if m.cfg.AnalyzeBest {
			m.snapBuf = m.src.All(m.snapBuf[:0])
			if set, cerr := e.collect(ctx, q, m.snapBuf, false); cerr == nil {
				candidateCI = set.CI
			}
		}
		m.perfBuf = m.registry.RecordAllocationInto(a, candidateCI, m.perfBuf)
		m.cfg.Observer.OnAllocation(a, population)
		return a, nil
	}
}

// genericExplain reconstructs an explain record for allocators that do not
// produce one themselves (every baseline): the backfilled proposal-aligned
// intentions and scores, plus registry satisfactions. Runs only for
// sampled queries — the one heap allocation per entry slice is the
// sampling budget, not the hot path.
func (m *Mediator) genericExplain(a *model.Allocation, candidates int) *model.Explain {
	ex := &model.Explain{
		Allocator:  fmt.Sprintf("%T", m.allocator),
		SatC:       m.registry.ConsumerSatisfaction(a.Query.Consumer),
		Candidates: candidates,
		Entries:    make([]model.ExplainEntry, len(a.Proposed)),
	}
	for i, id := range a.Proposed {
		en := model.ExplainEntry{
			Rank:     i + 1,
			Provider: id,
			SatP:     m.registry.ProviderSatisfaction(id),
		}
		if i < len(a.ConsumerIntentions) {
			en.CI = a.ConsumerIntentions[i]
		}
		if i < len(a.ProviderIntentions) {
			en.PI = a.ProviderIntentions[i]
		}
		if i < len(a.Scores) {
			en.Score = a.Scores[i]
		}
		ex.Entries[i] = en
	}
	return ex
}

// backfillIntentions fills any intention the allocator did not collect
// itself (baseline techniques are interest-blind; the satisfaction model
// still needs the participants' intentions about what happened). The fill is
// one batched Intentions round over the surviving proposal set — the same
// protocol call SbQA makes over Kn — so baseline techniques get identical
// fan-out, deadline, and imputation semantics.
//
// Providers that unregistered between candidate discovery and this point —
// possible when the directory is shared with concurrent registrars — are
// dropped from the allocation entirely rather than silently recorded with
// zero intentions: recording would resurrect the departed provider's
// satisfaction tracker and skew the consumer's obtained satisfaction with a
// phantom result. The directory hands out the same view until a write touches
// the bucket, so an unchanged view pointer proves nobody departed and the
// per-provider directory lookups are skipped.
func (m *Mediator) backfillIntentions(ctx context.Context, e *env, a *model.Allocation) {
	prefilled := len(a.ConsumerIntentions) == len(a.Proposed) &&
		len(a.ProviderIntentions) == len(a.Proposed)
	resolve := m.dir.Provider
	if m.dir.View(a.Query.Class) == m.src.view {
		if prefilled {
			return
		}
		resolve = m.candidateOf
	}
	// Pass 1: drop departed providers, compacting the proposal-aligned
	// vectors, and gather the surviving providers' snapshots when the
	// intentions still need to be collected.
	var snaps []model.ProviderSnapshot
	if !prefilled {
		snaps = m.bfSnaps[:0]
	}
	kept := 0
	for i, id := range a.Proposed {
		p := resolve(id)
		if p == nil {
			continue
		}
		if !prefilled {
			snaps = append(snaps, m.src.snapshotOf(id, p))
		}
		a.Proposed[kept] = a.Proposed[i]
		if prefilled {
			a.ConsumerIntentions[kept] = a.ConsumerIntentions[i]
			a.ProviderIntentions[kept] = a.ProviderIntentions[i]
		}
		if i < len(a.Scores) {
			a.Scores[kept] = a.Scores[i]
		}
		kept++
	}
	stale := kept < len(a.Proposed)
	if !prefilled {
		m.bfSnaps = snaps // retain grown capacity for the next mediation
	}
	a.Proposed = a.Proposed[:kept]
	if len(a.Scores) > kept {
		a.Scores = a.Scores[:kept]
	}
	switch {
	case prefilled:
		a.ConsumerIntentions = a.ConsumerIntentions[:kept]
		a.ProviderIntentions = a.ProviderIntentions[:kept]
	case kept == 0:
		// Every proposed provider departed: nothing to collect (and no
		// pointless zero-candidate round trip to a remote consumer).
		a.ConsumerIntentions = nil
		a.ProviderIntentions = nil
	default:
		// The collected set aliases the mediator's CI/PI scratch; the
		// allocation must own its vectors (they outlive this mediation), so
		// copy into one fresh backing array with capped halves. On a canceled
		// backfill the vectors stay zero — the mediation outcome is recorded
		// with neutral intentions rather than lost entirely, since the
		// allocation already happened and was dispatched to.
		set, err := e.Intentions(ctx, a.Query, snaps)
		ints := make([]model.Intention, 2*kept)
		a.ConsumerIntentions = ints[:kept:kept]
		a.ProviderIntentions = ints[kept:]
		if err == nil {
			copy(a.ConsumerIntentions, set.CI)
			copy(a.ProviderIntentions, set.PI)
		}
	}
	if !stale {
		return
	}
	// Drop stale providers from the selection too; the dispatcher could not
	// deliver to them anyway.
	selKept := 0
	for _, id := range a.Selected {
		alive := false
		for _, pid := range a.Proposed {
			if pid == id {
				alive = true
				break
			}
		}
		if alive {
			a.Selected[selKept] = id
			selKept++
		}
	}
	a.Selected = a.Selected[:selKept]
}
